"""Score-argmax classification built on per-class Christoffel functions.

A fitted model holds one Christoffel evaluator per class; a query is
assigned to the class whose Christoffel function value (score) is largest,
ties going to the smallest class index.  The module also provides the
joint-measure view on R^n x {1..m}: Lagrange interpolation polynomials on
the label points, the combined Christoffel function

    q_joint(x, y) = sum_j theta_j(y)^2 * q_j(x)      (q = inverse score)

and the two direct joint constructions (variety and tensor monomial
bases over the (point, label) pairs) together with a checker for the
pointwise ordering that relates them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .christoffel import (
    ChristoffelEvaluator,
    ThresholdPolicy,
    build_evaluator,
    cf_from_inverse,
    eval_cf_batch,
    eval_cf_inverse_batch,
    inverse_scores,
    inverse_scores_from_values,
)
from .datasets import AffineTransform, scale_to_unit_box
from .moments import (
    LabeledDataset,
    class_split,
    joint_moment_matrix,
    moment_matrix_from_values,
)
from .multiindex import (
    basis_dimension,
    enumerate_basis,
    enumerate_tensor_basis,
    enumerate_variety_basis,
    eval_monomials_batch,
)

REJECT_LABEL = 0


@dataclass(frozen=True)
class InterpolationBasis:
    """Lagrange polynomials theta_1..theta_m on the points {1..m}.

    theta_j has degree m-1, theta_j(i) = 1 if i == j else 0, and the
    family sums to 1 everywhere.  Evaluation uses the product form
    prod_{i != j} (y - i) / (j - i), one row of an (m, m) array per j with
    1 on the diagonal; at integer y this yields exact 0.0 and 1.0 values,
    which the classifier relies on.
    """

    m: int

    def eval_all(self, y: float) -> np.ndarray:
        nodes = np.arange(1.0, self.m + 1)
        off = ~np.eye(self.m, dtype=bool)
        num = np.where(off, y - nodes, 1.0).prod(axis=1)
        den = np.where(off, nodes[:, None] - nodes, 1.0).prod(axis=1)
        return num / den


def make_theta(m: int) -> InterpolationBasis:
    """Build the Lagrange interpolation basis on {1..m} (1 <= m <= 12)."""
    if not 1 <= m <= 12:
        raise ValueError("class count m must be between 1 and 12")
    return InterpolationBasis(m=m)


@dataclass
class ClassifierModel:
    """Per-class Christoffel evaluators plus the shared input transform."""

    m: int
    degree: int
    evaluators: list[ChristoffelEvaluator]
    transform: AffineTransform
    policy: ThresholdPolicy
    class_prior_weights: bool = False
    reject_threshold: float | None = None
    train_score_floor: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.evaluators[0].basis.n


def default_degree(dataset: LabeledDataset) -> int:
    """Largest t whose basis size stays within half the smallest class."""
    counts = np.bincount(dataset.labels, minlength=dataset.m + 1)[1:]
    budget = int(np.ceil(counts.min() / 2))
    t = 1
    while basis_dimension(dataset.n, t + 1) <= budget:
        t += 1
    return t


def fit(
    dataset: LabeledDataset,
    degree: int | None = None,
    policy: ThresholdPolicy | None = None,
    scale: bool = True,
    class_prior_weights: bool = False,
    reject_threshold: float | None = None,
) -> ClassifierModel:
    """Fit one Christoffel evaluator per class at the given degree.

    Inputs are affinely rescaled to [-1, 1]^n before moments are
    assembled (monomial Gram matrices are badly conditioned otherwise);
    pass ``scale=False`` to work in the raw coordinates.  With ``degree``
    unset a conservative default is derived from the class sizes.
    """
    if policy is None:
        policy = ThresholdPolicy()
    if degree is None:
        degree = default_degree(dataset)
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if scale:
        scaled, transform = scale_to_unit_box(dataset)
    else:
        scaled, transform = dataset, AffineTransform.identity(dataset.n)
    basis = enumerate_basis(dataset.n, degree)
    measures = class_split(scaled, class_prior_weights=class_prior_weights)
    evaluators = []
    floors = np.empty(dataset.m)
    for label, measure in enumerate(measures, start=1):
        if measure.points.shape[0] > 1 and np.all(
            measure.points == measure.points[0]
        ):
            warnings.warn(
                f"class {label}: all points identical, evaluator has rank 1",
                stacklevel=2,
            )
        values = eval_monomials_batch(basis, measure.points)
        matrix = moment_matrix_from_values(basis, values, measure.weights, measure.mass)
        ev = build_evaluator(matrix, policy)
        evaluators.append(ev)
        own = cf_from_inverse(inverse_scores_from_values(ev, values))
        floors[label - 1] = np.percentile(own, 5.0)
        # Free this class's basis values before the next class's are
        # built, so at most one (points, size) array is alive.
        del values
    return ClassifierModel(
        m=dataset.m,
        degree=degree,
        evaluators=evaluators,
        transform=transform,
        policy=policy,
        class_prior_weights=class_prior_weights,
        reject_threshold=reject_threshold,
        train_score_floor=floors,
    )


def scores_batch(model: ClassifierModel, points) -> np.ndarray:
    """Per-class Christoffel function values, shape (n_points, m).

    Each query is evaluated in the basis once for all classes, in row
    chunks of bounded size.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != model.n:
        raise ValueError(
            f"queries must be a 2-D array with {model.n} columns, "
            f"got shape {pts.shape}"
        )
    scaled = model.transform.forward(pts)
    return cf_from_inverse(inverse_scores(model.evaluators, scaled))


def scores(model: ClassifierModel, x) -> np.ndarray:
    """Score vector (L_1(x), ..., L_m(x)) at a single point."""
    return scores_batch(model, np.asarray(x, float)[None, :])[0]


def predict_batch(model: ClassifierModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and the score matrix for each row of ``points``.

    The smallest class index wins ties.  With a reject threshold
    configured, rows whose best score falls below it get
    ``REJECT_LABEL`` (0).
    """
    sc = scores_batch(model, points)
    labels = np.argmax(sc, axis=1) + 1
    if model.reject_threshold is not None:
        labels[sc.max(axis=1) < model.reject_threshold] = REJECT_LABEL
    return labels, sc


def classify_batch(model: ClassifierModel, points) -> np.ndarray:
    """The labels of :func:`predict_batch`."""
    return predict_batch(model, points)[0]


def classify(model: ClassifierModel, x) -> int:
    return int(classify_batch(model, np.asarray(x, float)[None, :])[0])


def joint_cf(model: ClassifierModel, x, y: float) -> float:
    """Joint Christoffel function on R^n x R via the theta combination.

    Returns [sum_j theta_j(y)^2 / L_j(x)]^(-1).  At integer y = j this is
    the same floating-point value as ``scores(model, x)[j-1]``: the theta
    weights are exactly one and zero there and zero-weight terms are
    skipped, so off-support classes cannot poison the sum.
    """
    scaled = model.transform.forward(np.asarray(x, dtype=np.float64)[None, :])
    q = inverse_scores(model.evaluators, scaled)[0]
    weights = make_theta(model.m).eval_all(y) ** 2
    used = weights != 0.0
    return float(cf_from_inverse(np.array([weights[used] @ q[used]]))[0])


def variety_cf(
    dataset: LabeledDataset,
    degree: int,
    policy: ThresholdPolicy | None = None,
    weighting: str = "uniform",
) -> ChristoffelEvaluator:
    """Joint evaluator on the variety basis (degree capped jointly)."""
    basis = enumerate_variety_basis(dataset.n, degree, dataset.m)
    return build_evaluator(joint_moment_matrix(dataset, basis, weighting), policy)


def tensor_cf(
    dataset: LabeledDataset,
    degree: int,
    policy: ThresholdPolicy | None = None,
    weighting: str = "uniform",
) -> ChristoffelEvaluator:
    """Joint evaluator on the tensor basis (degrees capped separately)."""
    basis = enumerate_tensor_basis(dataset.n, degree, dataset.m)
    return build_evaluator(joint_moment_matrix(dataset, basis, weighting), policy)


def eval_joint(ev: ChristoffelEvaluator, x, y: float) -> float:
    """Christoffel function of a joint evaluator at the pair (x, y)."""
    z = np.append(np.asarray(x, dtype=np.float64), float(y))
    return float(eval_cf_batch(ev, z[None, :])[0])


def eval_joint_inverse(ev: ChristoffelEvaluator, x, y: float) -> float:
    z = np.append(np.asarray(x, dtype=np.float64), float(y))
    return float(eval_cf_inverse_batch(ev, z[None, :])[0])


@dataclass
class SandwichReport:
    """Outcome of the pointwise inverse-score ordering check."""

    n_points: int
    n_violations: int
    violations: list[tuple[int, str, float, float]]
    max_excess: float


def sandwich_check(
    dataset: LabeledDataset,
    degree: int,
    grid,
    policy: ThresholdPolicy | None = None,
) -> SandwichReport:
    """Verify q_variety(t) <= q_tensor(t) <= q_variety(t + m - 1) pointwise.

    ``grid`` is an array of joint points (x..., y) with y in {1..m}.  The
    three inverse scores are compared with slack 1e-9 * (1 + |q|), using
    the convention that an off-range point has q = inf.  The evaluators
    must use spectrum thresholding, not Tikhonov regularization, for the
    ordering to be exact.
    """
    if policy is None:
        policy = ThresholdPolicy()
    if policy.mode != "rel":
        raise ValueError("sandwich_check requires a thresholding policy")
    pts = np.asarray(grid, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != dataset.n + 1:
        raise ValueError("grid must be a 2-D array of (x..., y) rows")
    low = variety_cf(dataset, degree, policy)
    mid = tensor_cf(dataset, degree, policy)
    high = variety_cf(dataset, degree + dataset.m - 1, policy)
    q_low = eval_cf_inverse_batch(low, pts)
    q_mid = eval_cf_inverse_batch(mid, pts)
    q_high = eval_cf_inverse_batch(high, pts)
    a = np.stack([q_low, q_mid], axis=1)
    b = np.stack([q_mid, q_high], axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf; the inf rule below decides
        excess = a - b - 1e-9 * (1.0 + np.maximum(np.abs(a), np.abs(b)))
    excess = np.where(
        np.isinf(b), 0.0, np.where(np.isinf(a), np.inf, np.maximum(excess, 0.0))
    )
    names = ("variety<=tensor", "tensor<=variety+")
    violations = [
        (int(i), names[k], float(a[i, k]), float(b[i, k]))
        for i, k in zip(*np.nonzero(excess > 0.0))
    ]
    return SandwichReport(
        n_points=pts.shape[0],
        n_violations=len(violations),
        violations=violations,
        max_excess=float(excess.max(initial=0.0)),
    )
