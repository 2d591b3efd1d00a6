"""Christoffel function evaluation from a factorized moment matrix.

The Christoffel function of a measure phi at degree t is

    L_t(x) = [ v_t(x)^T M_t(phi)^+ v_t(x) ]^(-1)

with v_t the monomial vector and M_t the moment matrix.  Equivalently it
is the value of the convex program

    min { integral of p^2 dphi : p a polynomial of degree <= t, p(x) = 1 }.

Discrete measures on N points give moment matrices of rank at most N, so
singular matrices are the normal case here, not an error.  There are two
factorizations, and :func:`build_evaluators` alone picks one by policy.

The eigen form (``rel``) keeps the eigenpairs above a threshold; query
points whose monomial vector leaves the retained eigenspace get L = 0,
exactly as the variational form dictates (some polynomial vanishing on
the sample is nonzero at x, so the infimum is 0).  The inverse score
q = 1/L is reported as ``inf`` there.  The evaluator holds
W = [E / sqrt(lambda) | D]: the retained eigenvectors scaled by the
inverse square roots of their eigenvalues, then an orthonormal basis D
of the complement of their span, derived from E alone.  With Y = V W,
the row sums of the first ``rank`` squared columns are q, and the
remaining columns hold the projection of v(x) off the retained
eigenspace.

The ridge form (``tikhonov``; :func:`ridge_factor`, :class:`RidgeEvaluator`)
scores the regularized Christoffel function of M + eps I = L L^T: with
R = L^-T, upper triangular, q(x) is the row sum of the squared entries
of v(x) R.  The basis is graded and eps is absolute, so the leading
s_t x s_t block of R is the factor at degree t, and one factor serves
every degree up to the one it was built at.

Scoring is one matrix product per block of query rows, as
``moments.basis_blocks`` yields them to moment assembly too, and per
eigen-form evaluator or shared ridge factor.  Evaluators at several
degrees of one basis kind share the block's basis values: a degree-t
basis is the leading block of every larger one, so each evaluator reads
the leading columns of its size.  V and Y are column-major, the layout
in which BLAS writes Y fastest, and the row sums go to contiguous memory
before they are stored in a score column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import NumericalError
from .moments import MomentMatrix, basis_blocks
from .multiindex import MonomialBasis, eval_monomials_batch

# Relative projection residual above which a query point is declared
# outside the retained eigenspace.
OFF_RANGE_TOL = 1e-8
# Value p^T M p / mass at or below which variational_eval reports 0.
VARIATIONAL_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class ThresholdPolicy:
    """How to split a PSD spectrum into retained and discarded parts.

    ``rel`` keeps eigenvalues above max(1e-12, value * lambda_max), with
    value finite and >= 0.  ``tikhonov`` adds value * I, with value finite
    and > 0, and keeps the full spectrum, which makes every score strictly
    positive at the cost of the exact rank and trace identities.
    :func:`build_evaluators` factors ``rel`` by a thresholded ``eigh`` and
    ``tikhonov`` by Cholesky (:func:`ridge_factor`), wherever it is used.
    """

    mode: str = "rel"
    value: float = 1e-10

    def __post_init__(self):
        if self.mode not in ("rel", "tikhonov"):
            raise ValueError(f"unknown threshold mode {self.mode!r}")
        if isinstance(self.value, bool) or not isinstance(self.value, Real):
            raise ValueError(f"threshold value must be a real number, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))  # a plain float saves as JSON
        if not 0 <= self.value < math.inf:
            raise ValueError(f"threshold value must be finite and >= 0, got {self.value!r}")
        if self.mode == "tikhonov" and self.value == 0:
            raise ValueError("tikhonov value must be > 0")

    @classmethod
    def from_string(cls, text: str) -> "ThresholdPolicy":
        """Parse ``rel:<float>`` or ``tikhonov:<float>``."""
        mode, sep, value = text.partition(":")
        if not sep:
            raise ValueError(
                f"bad threshold policy {text!r}, expected mode:value"
            )
        return cls(mode=mode, value=float(value))

    def to_string(self) -> str:
        return f"{self.mode}:{self.value!r}"


class ChristoffelEvaluator:
    """Thresholded eigendecomposition of a moment matrix, ready to score.

    Attributes
    ----------
    basis : MonomialBasis
        Basis indexing the factorized matrix.
    eigenvalues : numpy.ndarray
        Retained eigenvalues, strictly positive, descending.
    eigenvectors : numpy.ndarray
        Matching orthonormal eigenvectors as columns, shape (size, rank).
    rank : int
    scoring : numpy.ndarray
        Read-only scoring matrix, shape (size, size).  Column k < rank is
        eigenvector k divided by sqrt(eigenvalue k); columns from ``rank``
        on are an orthonormal basis of the complement of the retained
        eigenspace (none at full rank).  It is derived from the two
        arrays above alone, so an evaluator rebuilt from them scores
        bit for bit the same.
    threshold : float
        Cutoff applied to the spectrum; 0.0 in the eigenpair ``tikhonov``
        files written before the ridge factor, which still load.
    mass : float
        Total mass of the measure the matrix came from.
    """

    # An eigen-form evaluator shares no ridge factor (see RidgeEvaluator).
    factor = None

    def __init__(self, basis, eigenvalues, eigenvectors, threshold, mass):
        self.basis = basis
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.threshold = float(threshold)
        self.mass = float(mass)
        scoring = eigenvectors / np.sqrt(eigenvalues)
        if self.rank < basis.size:
            complete = np.linalg.qr(eigenvectors, mode="complete")[0]
            scoring = np.hstack([scoring, complete[:, self.rank :]])
        scoring.flags.writeable = False
        self.scoring = scoring

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]


class RidgeEvaluator(ChristoffelEvaluator):
    """The ridge form: one degree's view of a class's shared ridge factor.

    ``factor`` is the read-only upper-triangular R = L^-T of M + eps I =
    L L^T at the largest degree fitted, and ``scoring`` is its leading
    (size, size) block, a view: eps is absolute and the basis graded, so
    that block is the factor at this degree.  ``rank`` is the basis size,
    ``threshold`` is 0.0, and ``basis`` and ``mass`` are as above.
    """

    eigenvalues = eigenvectors = None
    threshold = 0.0

    def __init__(self, basis, factor, mass):
        self.basis = basis
        self.factor = factor
        self.mass = float(mass)
        self.scoring = factor[: basis.size, : basis.size]

    @property
    def rank(self) -> int:
        return self.basis.size


def ridge_factor(gram: np.ndarray, ridge: float) -> np.ndarray:
    """The read-only upper-triangular R = L^-T of ``gram + ridge * I = L L^T``.

    Uses only ``numpy.linalg.cholesky`` and ``inv``; the entries below the
    diagonal of R are exact zeros.  A matrix that the ridge does not make
    positive definite, or a factor that is not finite, raises
    :class:`NumericalError`.
    """
    failed = (
        f"moment matrix plus the ridge tikhonov:{ridge!r} is not positive definite "
        "in floating point; rescale the points, lower the degree or raise the ridge"
    )
    try:
        lower = np.linalg.cholesky(gram + ridge * np.eye(gram.shape[0]))
    except np.linalg.LinAlgError:
        raise NumericalError(failed) from None
    factor = np.triu(np.linalg.inv(lower).T)
    if not np.isfinite(factor).all():
        raise NumericalError(failed)
    factor.flags.writeable = False
    return factor


def build_evaluators(
    M: MomentMatrix, bases, policy: ThresholdPolicy | None = None
) -> list[ChristoffelEvaluator]:
    """One evaluator per entry of ``bases``, each scoring a leading block of ``M``.

    Each basis must be a leading block of ``M.basis`` (the bases of one
    kind at lower degrees are).  This is the one place a policy picks a
    factorization: ``tikhonov`` factors ``M`` once by :func:`ridge_factor`
    and returns a :class:`RidgeEvaluator` view of that factor per basis;
    ``rel`` runs ``eigh`` on each leading block, which reads its lower
    triangle, and keeps the eigenpairs above the cutoff.
    """
    if policy is None:
        policy = ThresholdPolicy()
    A = M.entries
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > 1e-10 * scale:
        raise NumericalError("moment matrix is not symmetric within tolerance")
    if policy.mode == "tikhonov":
        factor = ridge_factor(A, policy.value)
        return [RidgeEvaluator(basis, factor, M.mass) for basis in bases]
    evaluators = []
    for basis in bases:
        eigvals, eigvecs = np.linalg.eigh(A[: basis.size, : basis.size])
        threshold = max(1e-12, policy.value * max(float(eigvals[-1]), 0.0))
        keep = eigvals > threshold
        if not np.any(keep):
            raise NumericalError(
                "all eigenvalues fall below the threshold; the measure is "
                "degenerate at this degree"
            )
        eigvals = eigvals[keep][::-1].copy()
        eigvecs = eigvecs[:, keep][:, ::-1].copy()
        evaluators.append(ChristoffelEvaluator(basis, eigvals, eigvecs, threshold, M.mass))
    return evaluators


def build_evaluator(
    M: MomentMatrix, policy: ThresholdPolicy | None = None
) -> ChristoffelEvaluator:
    """Factorize a moment matrix for scoring: the one-basis :func:`build_evaluators`."""
    return build_evaluators(M, [M.basis], policy)[0]


def inverse_scores(evaluators, points) -> np.ndarray:
    """Inverse scores of each row of ``points`` under each evaluator.

    Returns shape (rows, len(evaluators)).  Each evaluator's basis must be
    a leading block of the largest one, as the bases of one kind at several
    degrees are; any other basis raises ValueError.  The largest basis is
    evaluated once per row chunk.  Each eigen-form evaluator, and each
    ridge factor that evaluators share, multiplies the chunk's leading
    columns once, at the widest basis size its evaluators read, into the
    column-major ``spare`` of :func:`moments.basis_blocks`; each evaluator
    then sums the squares of its own leading columns.  The products run
    over the padded rows of the chunk.  The result is C-ordered.  Points
    off an eigen-form evaluator's retained eigenspace get ``inf`` in its
    column.  So do points so far out that their basis values or scores
    overflow: a q that is not finite is reported as ``inf``, without
    floating-point warnings, and every other row is computed exactly as it
    would be without them.  No q is 0 (v(x) has a constant entry) or nan,
    so 1 / q is the Christoffel function, 0.0 where q is ``inf``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("expected a 2-D array of query points")
    basis = max((ev.basis for ev in evaluators), key=lambda b: b.size)
    for ev in evaluators:
        if not _leads(ev.basis, basis):
            raise ValueError("evaluator bases must be leading blocks of the largest one")
    # Evaluator indices per product: the ones reading one ridge factor, or one eigen form.
    shared = {}
    for k, ev in enumerate(evaluators):
        shared.setdefault(id(ev) if ev.factor is None else id(ev.factor), []).append(k)
    products = [
        (max((evaluators[k] for k in ks), key=lambda ev: ev.basis.size).scoring, ks)
        for ks in shared.values()
    ]
    q = np.empty((pts.shape[0], len(evaluators)))
    with np.errstate(over="ignore", invalid="ignore"):
        for block, values, spare in basis_blocks(basis, pts):
            rows = block.stop - block.start
            # ||v||^2 per basis size, for the evaluators that need it.
            norms = {}
            for scoring, ks in products:
                width = scoring.shape[0]
                Y = np.matmul(values[:, :width], scoring, out=spare[:, :width])[:rows]
                for k in ks:
                    s, rank = evaluators[k].basis.size, evaluators[k].rank
                    kept, off = Y[:, :rank], Y[:, rank:s]
                    # Row sums go to contiguous memory, then to q's strided
                    # column: twice as fast as summing into the column.
                    sums = np.einsum("ij,ij->i", kept, kept)
                    if rank < s:
                        if s not in norms:
                            head = values[:rows, :s]
                            norms[s] = np.einsum("ij,ij->i", head, head)
                        # Squared norms on both sides: no square root per row.
                        sums[np.einsum("ij,ij->i", off, off) > OFF_RANGE_TOL**2 * norms[s]] = np.inf
                    q[block, k] = sums
            # Per block, so the mask is no larger than the other working arrays.
            chunk = q[block]
            chunk[~np.isfinite(chunk)] = np.inf
    return q


def _leads(head: MonomialBasis, basis: MonomialBasis) -> bool:
    """Whether ``head`` is the leading block of ``basis``."""
    return (
        (head.n, head.kind, head.m) == (basis.n, basis.kind, basis.m)
        and head.size <= basis.size
        and np.array_equal(head.parents, basis.parents[: head.size])
        and np.array_equal(head.variables, basis.variables[: head.size])
    )


def eval_cf_inverse_batch(ev: ChristoffelEvaluator, points) -> np.ndarray:
    """Inverse scores q(x) = v(x)^T M^+ v(x) for each row of ``points``.

    Points off the retained eigenspace get ``inf`` (their Christoffel
    function value is 0).  Values are never negative.
    """
    return inverse_scores([ev], points)[:, 0]


def eval_cf_batch(ev: ChristoffelEvaluator, points) -> np.ndarray:
    """Christoffel function values for each row of ``points`` (0 off range)."""
    return 1.0 / eval_cf_inverse_batch(ev, points)


def as_row(x, length: int) -> np.ndarray:
    """The one conversion of a single query point, to a (1, length) float64 array.

    A 0-d input is one coordinate; any shape other than (length,) raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = x[None]
    if x.ndim != 1 or x.shape[0] != length:
        raise ValueError(f"query point must have length {length}, got shape {x.shape}")
    return x[None, :]


def eval_cf(ev: ChristoffelEvaluator, x) -> float:
    """Christoffel function value at a single point."""
    return float(eval_cf_batch(ev, as_row(x, ev.basis.nvars))[0])


def eval_cf_inverse(ev: ChristoffelEvaluator, x) -> float:
    """Inverse score at a single point; ``inf`` marks an off-range point."""
    return float(eval_cf_inverse_batch(ev, as_row(x, ev.basis.nvars))[0])


def variational_eval(M: MomentMatrix, x) -> tuple[float, np.ndarray]:
    """Solve min{p^T M p : p(x) = 1} by a dense stationarity solve.

    Returns ``(value, coefficients)`` where the coefficients are expressed
    in the basis of ``M`` and satisfy p(x) = 1.  For a point where the
    infimum is 0 the value is exactly 0.0 and the coefficients certify it:
    p^T M p <= VARIATIONAL_ZERO_TOL * mass while p(x) = 1.

    This is an independent path from :func:`eval_cf`: it solves the
    bordered system (2M p = nu * v, v^T p = 1) with a least-squares
    factorization instead of reusing the thresholded eigenpairs.
    """
    v = eval_monomials_batch(M.basis, as_row(x, M.basis.nvars))[0]
    s = M.size
    K = np.zeros((s + 1, s + 1))
    K[:s, :s] = 2.0 * M.entries
    K[:s, s] = -v
    K[s, :s] = v
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    z, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    p = z[:s]
    p_at_x = float(v @ p)
    if abs(p_at_x) < 1e-12:
        raise NumericalError(
            "stationarity solve produced a polynomial vanishing at the query"
        )
    p = p / p_at_x
    value = float(p @ M.entries @ p)
    if value <= VARIATIONAL_ZERO_TOL * M.mass:
        return 0.0, p
    return value, p


def orthonormal_polynomials(ev: ChristoffelEvaluator) -> np.ndarray:
    """Coefficients of an orthonormal family spanning the retained subspace.

    Row k holds the coefficients (in the evaluator's basis) of
    P_k = eigenvector_k / sqrt(eigenvalue_k).  The Gram matrix of these
    polynomials under the original measure is the rank x rank identity,
    and sum_k P_k(x)^2 equals the inverse score for on-range x.  For the
    ridge form, P_k is column k of the factor R, and the family is
    orthonormal under M + eps I.  The rows are a read-only view of the
    evaluator's scoring matrix.
    """
    return ev.scoring[:, : ev.rank].T
