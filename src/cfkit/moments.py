"""Empirical measures on labeled point clouds and their moment matrices.

A moment matrix is the Gram matrix of a monomial basis under a discrete
measure: M[a, b] = sum_i w_i * x_i^(a+b).  Assembly runs over the points
in their stored order, in the ``row_blocks`` that query scoring uses too,
combined with compensated summation, so the result does not depend on how
work might be partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .multiindex import MonomialBasis, eval_monomials_batch

# Rows per block of basis values; bounds the (rows, size) working arrays.
EVAL_CHUNK = 4096


def row_blocks(n_rows: int):
    """Consecutive slices of at most ``EVAL_CHUNK`` rows covering ``n_rows``."""
    for start in range(0, n_rows, EVAL_CHUNK):
        yield slice(start, min(start + EVAL_CHUNK, n_rows))


@dataclass
class LabeledDataset:
    """A point cloud in R^n with integer class labels in {1..m}.

    ``m`` defaults to the largest label present.
    """

    points: np.ndarray
    labels: np.ndarray
    m: int | None = None

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.points.ndim != 2:
            raise DataError("points must be a 2-D array (n_points, n)")
        if self.points.shape[0] < 1:
            raise DataError("dataset must contain at least one point")
        if self.labels.shape != (self.points.shape[0],):
            raise DataError("labels must be a vector with one entry per point")
        if not np.all(np.isfinite(self.points)):
            raise DataError("points contain non-finite coordinates")
        if np.any(self.labels < 1):
            raise DataError("labels must be integers >= 1")
        if self.m is None:
            self.m = int(self.labels.max())
        elif np.any(self.labels > self.m):
            bad = int(self.labels.max())
            raise DataError(f"label {bad} exceeds declared class count m={self.m}")

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def class_points(self, label: int) -> np.ndarray:
        return self.points[self.labels == label]


@dataclass
class EmpiricalMeasure:
    """Finitely many weighted atoms; weights sum to the declared mass."""

    points: np.ndarray
    weights: np.ndarray
    mass: float = 1.0

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise DataError("measure needs a nonempty 2-D point array")
        if self.weights.shape != (self.points.shape[0],):
            raise DataError("weights must be a vector with one entry per point")
        if np.any(self.weights < 0):
            raise DataError("weights must be nonnegative")
        total = float(self.weights.sum())
        if abs(total - self.mass) > 1e-12 * max(abs(self.mass), 1.0):
            raise DataError(
                f"weights sum to {total!r}, expected mass {self.mass!r}"
            )

    @property
    def n(self) -> int:
        return self.points.shape[1]


@dataclass
class MomentMatrix:
    """Symmetric positive semidefinite Gram matrix indexed by a basis."""

    basis: MonomialBasis
    entries: np.ndarray
    mass: float

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def uniform_measure(points) -> EmpiricalMeasure:
    """Probability measure with equal weight on every row of ``points``.

    A 1-D input is treated as points on the real line.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    k = pts.shape[0]
    return EmpiricalMeasure(pts, np.full(k, 1.0 / k), mass=1.0)


def class_split(
    dataset: LabeledDataset, class_prior_weights: bool = False
) -> list[EmpiricalMeasure]:
    """One empirical measure per class, in label order 1..m.

    By default each class is normalized to a probability measure
    (weights 1/N_j).  With ``class_prior_weights`` every point keeps
    weight 1/N, so class j carries mass N_j / N.
    """
    out = []
    total = dataset.n_points
    for label in range(1, dataset.m + 1):
        pts = dataset.class_points(label)
        if pts.shape[0] == 0:
            raise DataError(f"class {label} has no points")
        k = pts.shape[0]
        if class_prior_weights:
            measure = EmpiricalMeasure(
                pts, np.full(k, 1.0 / total), mass=k / total
            )
        else:
            measure = EmpiricalMeasure(pts, np.full(k, 1.0 / k), mass=1.0)
        out.append(measure)
    return out


def _assemble_gram(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Gram values^T diag(w) values, blocked with Kahan compensation."""
    s = values.shape[1]
    total = np.zeros((s, s))
    comp = np.zeros((s, s))
    for block in row_blocks(values.shape[0]):
        part = (values[block] * weights[block][:, None]).T @ values[block]
        y = part - comp
        updated = total + y
        comp = (updated - total) - y
        total = updated
    return 0.5 * (total + total.T)


def empirical_moment_matrix(
    measure: EmpiricalMeasure, basis: MonomialBasis
) -> MomentMatrix:
    """Moment matrix of a plain basis under an empirical measure."""
    if basis.kind != "plain":
        raise ValueError("empirical_moment_matrix expects a plain basis")
    if basis.n != measure.n:
        raise ValueError(
            f"basis dimension {basis.n} does not match point dimension {measure.n}"
        )
    values = eval_monomials_batch(basis, measure.points)
    return moment_matrix_from_values(basis, values, measure.weights, measure.mass)


def moment_matrix_from_values(
    basis: MonomialBasis, values: np.ndarray, weights: np.ndarray, mass: float
) -> MomentMatrix:
    """Moment matrix from the basis values at the atoms (row i is v(x_i))."""
    return MomentMatrix(basis=basis, entries=_assemble_gram(values, weights), mass=mass)


def joint_moment_matrix(
    dataset: LabeledDataset,
    basis: MonomialBasis,
    weighting: str = "uniform",
) -> MomentMatrix:
    """Moment matrix of the joint monomials x^a * y^k over (point, label) pairs.

    ``weighting`` selects the atom weights:

    * ``"uniform"``: every pair gets weight 1/N (total mass 1).
    * ``"per_class"``: pairs of class j get weight 1/N_j, so each class
      marginal is a probability measure and the total mass is m.  This is
      the weighting under which the joint Christoffel function at integer
      y = j reproduces the per-class score of a classifier fitted with
      probability-normalized class measures.
    """
    if basis.kind not in ("variety", "tensor"):
        raise ValueError("joint_moment_matrix expects a variety or tensor basis")
    if basis.n != dataset.n:
        raise ValueError(
            f"basis dimension {basis.n} does not match point dimension {dataset.n}"
        )
    if basis.m != dataset.m:
        raise ValueError(
            f"basis class count {basis.m} does not match dataset m={dataset.m}"
        )
    pairs = np.hstack([dataset.points, dataset.labels[:, None].astype(np.float64)])
    if weighting == "uniform":
        weights = np.full(dataset.n_points, 1.0 / dataset.n_points)
        mass = 1.0
    elif weighting == "per_class":
        counts = np.bincount(dataset.labels, minlength=dataset.m + 1)
        if np.any(counts[1:] == 0):
            missing = int(np.flatnonzero(counts[1:] == 0)[0]) + 1
            raise DataError(f"class {missing} has no points")
        weights = 1.0 / counts[dataset.labels]
        mass = float(dataset.m)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    values = eval_monomials_batch(basis, pairs)
    return moment_matrix_from_values(basis, values, weights, mass)
