"""Accuracy metrics and the key-value evaluation report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import ClassifierModel, classify_batch
from .datasets import ShapeSpec, epsilon_interior_mask
from .errors import DataError
from .moments import LabeledDataset


@dataclass
class MetricsReport:
    """Classification quality on a labeled test set.

    The confusion matrix has one row per true class and one column per
    predicted class; rows sum to the per-class test counts and the trace
    over the total gives the accuracy.  Rejected queries (label 0) are
    counted as errors and tracked separately per class.
    """

    n_total: int
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray
    rejected_per_class: np.ndarray
    n_eps_interior: int | None = None
    eps_interior_accuracy: float | None = None


def confusion_matrix(true_labels, predicted, m: int):
    """(confusion, rejected_per_class) from true and predicted labels."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if np.any(true_labels < 1) or np.any(true_labels > m):
        raise DataError("true labels outside 1..m")
    if np.any(predicted < 0) or np.any(predicted > m):
        raise DataError("predicted labels outside 0..m")
    cells = np.bincount(
        (true_labels - 1) * (m + 1) + predicted, minlength=m * (m + 1)
    ).reshape(m, m + 1)
    return cells[:, 1:], cells[:, 0]


def evaluate_model(
    model: ClassifierModel,
    dataset: LabeledDataset,
    specs: list[ShapeSpec] | None = None,
    eps: float | None = None,
) -> MetricsReport:
    """Score a model on a labeled dataset.

    With shapes and ``eps`` given, a second accuracy figure restricted to
    the eps-interior test points is included.
    """
    if dataset.m > model.m:
        raise DataError(
            f"test labels go up to {dataset.m} but the model has {model.m} classes"
        )
    predicted = classify_batch(model, dataset.points)
    confusion, rejected = confusion_matrix(dataset.labels, predicted, model.m)
    totals = confusion.sum(axis=1) + rejected
    correct = np.diag(confusion)
    with np.errstate(invalid="ignore"):
        per_class = np.where(totals > 0, correct / np.maximum(totals, 1), np.nan)
    report = MetricsReport(
        n_total=dataset.n_points,
        accuracy=float(correct.sum() / dataset.n_points),
        per_class_accuracy=per_class,
        confusion=confusion,
        rejected_per_class=rejected,
    )
    if specs is not None and eps is not None:
        mask = epsilon_interior_mask(dataset.points, specs, eps, dataset.labels)
        report.n_eps_interior = int(mask.sum())
        if report.n_eps_interior > 0:
            hits = predicted[mask] == dataset.labels[mask]
            report.eps_interior_accuracy = float(np.mean(hits))
    return report


def render_report(report: MetricsReport) -> str:
    """Render the report as a key-value text document."""
    lines = [
        f"n_test {report.n_total}",
        f"accuracy {report.accuracy!r}",
    ]
    for j, value in enumerate(report.per_class_accuracy, start=1):
        lines.append(f"class_{j}_accuracy {float(value)!r}")
    for j, row in enumerate(report.confusion, start=1):
        lines.append(f"confusion_{j} " + " ".join(str(int(v)) for v in row))
    if report.rejected_per_class.sum() > 0:
        for j, count in enumerate(report.rejected_per_class, start=1):
            lines.append(f"rejected_{j} {int(count)}")
    if report.n_eps_interior is not None:
        lines.append(f"eps_interior_n {report.n_eps_interior}")
        if report.eps_interior_accuracy is not None:
            lines.append(f"eps_interior_accuracy {report.eps_interior_accuracy!r}")
    return "\n".join(lines) + "\n"
