"""Empirical measures on labeled point clouds and their moment matrices.

A moment matrix is the Gram matrix of a monomial basis under a discrete
measure: M[a, b] = sum_i w_i * x_i^(a+b).  Assembly walks the points in
their stored order through ``basis_blocks``, as query scoring does, one
block of basis values at a time, so its working memory does not grow
with the number of points.  Each block adds its ``sqrt(w)``-scaled
values times their own transpose (BLAS ``syrk``): the matrix is exactly
symmetric.  Its bits depend on the block shapes.  With OpenBLAS 0.3.31
they were the same under 1 and 2 BLAS threads up to 91 basis entries
(two disks to degree 12, a 3-D class of 3000 points to degree 6), and
differed from 165 entries on (that class at degrees 8 and 10).  From 165
entries on, ``numpy.linalg.eigh`` of one fixed matrix differs too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DataError, NumericalError
from .multiindex import MonomialBasis, eval_monomials_batch

# Rows per block of basis values at most; bases of up to 32 entries use this many.
EVAL_CHUNK = 4096
# Floats per (rows, size) working array of a block, 1 MiB of float64: wider
# bases take fewer rows, so a block's values and product hold at most 2 MiB.
BLOCK_FLOATS = 2**17

# Labels are stored as int64; a float label at or above this does not fit.
_LABEL_LIMIT = 2.0**63


def is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def valid_labels(labels) -> bool:
    """Whether every label is an integer in ``1 .. 2**63 - 1``."""
    labels = np.asarray(labels)
    return bool(np.all((labels >= 1) & (labels < _LABEL_LIMIT) & (labels == np.floor(labels))))


def block_rows(width: int) -> int:
    """Rows per block of a ``width``-column array: ``EVAL_CHUNK``, or as many
    as fit in ``BLOCK_FLOATS`` values, but at least one."""
    return min(EVAL_CHUNK, max(1, BLOCK_FLOATS // width))


def row_blocks(n_rows: int, width: int = 1):
    """Consecutive slices of ``block_rows(width)`` rows covering ``n_rows``;
    the last may be shorter."""
    step = block_rows(width)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _padded(rows: int) -> int:
    """``rows`` rounded up to a multiple of 16, the row count of every
    scoring product (see :func:`basis_blocks`)."""
    return -(-rows // 16) * 16


def basis_blocks(basis: MonomialBasis, points: np.ndarray):
    """The basis values of ``points``, one ``row_blocks`` block at a time.

    Yields ``(block, values, spare)`` for each block: ``values`` holds the
    block's basis values, then zero rows up to a multiple of 16, shape
    (``_padded(rows)``, basis.size), and ``spare`` is an array of that
    shape for the caller's product.  Both are contiguous and column-major,
    the layout the recurrence writes fastest and that OpenBLAS fills
    fastest as a product's output (the 1440-row block of a 91-entry basis
    times a 91 x 91 matrix: 0.63 ms column-major, 0.82 ms row-major, with
    the same bits).  A product over the padded rows has the same bits
    under 1 and 2 OpenBLAS threads; over a row count that is not a
    multiple of 8, its last rows differ between the two from about 28
    columns on.  Moment assembly reads only the block's rows.  Each holds
    at most ``BLOCK_FLOATS`` values, plus the pad, unless one row is
    wider, so a pass holds about 2 MiB of them whatever the basis size.
    Both are rewritten at the next block.  They come from one allocation
    per call, in place of fresh arrays per block, which also keeps glibc
    from returning the memory to the system after each call: freeing a
    chunk this large raises its trim threshold to twice the chunk, so the
    next call reuses the pages instead of faulting them in again.
    """
    work = np.empty((2, basis.size * _padded(min(block_rows(basis.size), points.shape[0]))))
    for block in row_blocks(points.shape[0], basis.size):
        rows = block.stop - block.start
        used = basis.size * _padded(rows)
        values = work[0, :used].reshape(basis.size, -1).T
        eval_monomials_batch(basis, points[block], out=values[:rows])
        values[rows:] = 0.0
        yield block, values, work[1, :used].reshape(basis.size, -1).T


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
        labels = np.asarray(self.labels)
        # Checked before the int64 cast, which would truncate 1.5 to 1.
        if not valid_labels(labels):
            raise DataError("labels must be integers >= 1")
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        if self.points.ndim != 2:
            raise DataError("points must be a 2-D array (n_points, n)")
        if self.points.shape[0] < 1:
            raise DataError("dataset must contain at least one point")
        if self.labels.shape != (self.points.shape[0],):
            raise DataError("labels must be a vector with one entry per point")
        if not np.all(np.isfinite(self.points)):
            raise DataError("points contain non-finite coordinates")
        if self.m is None:
            self.m = int(self.labels.max())
        elif not (is_integer(self.m) and self.m >= 1):
            raise DataError(f"class count m must be an integer >= 1, got {self.m!r}")
        elif np.any(self.labels > self.m):
            bad = int(self.labels.max())
            raise DataError(f"label {bad} exceeds declared class count m={self.m}")
        self.m = int(self.m)

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
        if not np.all(np.isfinite(self.points)):
            raise DataError("points contain non-finite coordinates")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
            raise DataError("weights must be finite and nonnegative")
        if not math.isfinite(self.mass):
            raise DataError(f"mass must be finite, got {self.mass!r}")
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
    # An empty input reaches EmpiricalMeasure's own check, not a division by 0.
    k = pts.shape[0]
    return EmpiricalMeasure(pts, np.full(k, 1.0) / k, mass=1.0)


def class_split(
    dataset: LabeledDataset, class_prior_weights: bool = False
) -> list[EmpiricalMeasure]:
    """One empirical measure per class, in label order 1..m.

    By default each class is normalized to a probability measure
    (weights 1/N_j).  With ``class_prior_weights`` every point keeps
    weight 1/N, so class j carries mass N_j / N.
    """
    out = []
    for label in range(1, dataset.m + 1):
        pts = dataset.class_points(label)
        if pts.shape[0] == 0:
            raise DataError(f"class {label} has no points")
        k = pts.shape[0]
        denominator = dataset.n_points if class_prior_weights else k
        out.append(EmpiricalMeasure(pts, np.full(k, 1.0 / denominator), mass=k / denominator))
    return out


def _gram(basis: MonomialBasis, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Gram sum_i w_i v(x_i) v(x_i)^T, one ``basis_blocks`` block at a time.

    Each block's values are scaled in place by ``sqrt(w_i)`` (weights are
    checked finite and >= 0 by :class:`EmpiricalMeasure`), and their product
    with their own transpose (BLAS ``syrk``) is added to the total.  A
    total that overflows raises :class:`NumericalError`.
    """
    total = np.zeros((basis.size, basis.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for block, values, _ in basis_blocks(basis, points):
            values = values[: block.stop - block.start]
            values *= np.sqrt(weights[block])[:, None]
            total += values.T @ values
    if not np.all(np.isfinite(total)):
        raise NumericalError(
            f"moment matrix is not finite at degree {basis.t}: the monomials "
            "of the points overflow; rescale the points or lower the degree"
        )
    return total


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
    entries = _gram(basis, measure.points, measure.weights)
    return MomentMatrix(basis=basis, entries=entries, mass=measure.mass)


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
    return MomentMatrix(basis=basis, entries=_gram(basis, pairs, weights), mass=mass)
