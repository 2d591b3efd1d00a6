"""Christoffel function evaluation from a factorized moment matrix.

The Christoffel function of a measure phi at degree t is

    L_t(x) = [ v_t(x)^T M_t(phi)^+ v_t(x) ]^(-1)

with v_t the monomial vector and M_t the moment matrix.  Equivalently it
is the value of the convex program

    min { integral of p^2 dphi : p a polynomial of degree <= t, p(x) = 1 }.

Discrete measures on N points give moment matrices of rank at most N, so
singular matrices are the normal case here, not an error.  The evaluator
keeps the eigenpairs above a threshold; query points whose monomial vector
leaves the retained eigenspace get L = 0, exactly as the variational form
dictates (some polynomial vanishing on the sample is nonzero at x, so the
infimum is 0).  The inverse score q = 1/L is reported as ``inf`` there.

Scoring is one matrix product per block of ``EVAL_CHUNK`` query rows
(the row blocks of ``moments``, which assembly uses too).  The evaluator
holds W = [E / sqrt(lambda) | D]: the retained eigenvectors scaled by the
inverse square roots of their eigenvalues, then an orthonormal basis D of
the complement of their span, derived from E alone.  With Y = V W, the
row sums of the first ``rank`` squared columns are q, and the remaining
columns hold the projection of v(x) off the retained eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .moments import EVAL_CHUNK, MomentMatrix, row_blocks
from .multiindex import MonomialBasis, eval_monomials_batch

# Relative projection residual above which a query point is declared
# outside the retained eigenspace.
OFF_RANGE_TOL = 1e-8


@dataclass(frozen=True)
class ThresholdPolicy:
    """How to split a PSD spectrum into retained and discarded parts.

    ``rel`` keeps eigenvalues above max(1e-12, value * lambda_max).
    ``tikhonov`` adds value * I and keeps the full spectrum, which makes
    every score strictly positive at the cost of the exact rank and trace
    identities.
    """

    mode: str = "rel"
    value: float = 1e-10

    def __post_init__(self):
        if self.mode not in ("rel", "tikhonov"):
            raise ValueError(f"unknown threshold mode {self.mode!r}")
        if self.value < 0:
            raise ValueError("threshold value must be nonnegative")

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
        Cutoff applied to the spectrum (0.0 in Tikhonov mode).
    mass : float
        Total mass of the measure the matrix came from.
    policy : ThresholdPolicy
    """

    def __init__(self, basis, eigenvalues, eigenvectors, threshold, mass, policy):
        self.basis = basis
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.threshold = float(threshold)
        self.mass = float(mass)
        self.policy = policy
        scoring = eigenvectors / np.sqrt(eigenvalues)
        if self.rank < basis.size:
            complete = np.linalg.qr(eigenvectors, mode="complete")[0]
            scoring = np.hstack([scoring, complete[:, self.rank :]])
        scoring.flags.writeable = False
        self.scoring = scoring

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]


def build_evaluator(
    M: MomentMatrix, policy: ThresholdPolicy | None = None
) -> ChristoffelEvaluator:
    """Factorize a moment matrix for fast Christoffel function evaluation."""
    if policy is None:
        policy = ThresholdPolicy()
    A = M.entries
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > 1e-10 * scale:
        raise NumericalError("moment matrix is not symmetric within tolerance")
    A = 0.5 * (A + A.T)

    if policy.mode == "tikhonov":
        A = A + policy.value * np.eye(A.shape[0])
        threshold = 0.0
    eigvals, eigvecs = np.linalg.eigh(A)
    if policy.mode == "rel":
        lam_max = max(float(eigvals[-1]), 0.0)
        threshold = max(1e-12, policy.value * lam_max)
    keep = eigvals > threshold
    if not np.any(keep):
        raise NumericalError(
            "all eigenvalues fall below the threshold; the measure is "
            "degenerate at this degree"
        )
    eigvals = eigvals[keep][::-1].copy()
    eigvecs = eigvecs[:, keep][:, ::-1].copy()
    return ChristoffelEvaluator(
        basis=M.basis,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        threshold=threshold,
        mass=M.mass,
        policy=policy,
    )


def inverse_scores_from_values(ev: ChristoffelEvaluator, values) -> np.ndarray:
    """Inverse scores from basis values: row i of ``values`` is v(x_i).

    This is the scoring kernel behind :func:`inverse_scores`, for
    callers that already hold the basis values of their points.  A row
    is off range, and scores ``inf``, when the norm of its projection
    onto the discarded directions exceeds ``OFF_RANGE_TOL`` times the
    norm of v(x).
    """
    rank = ev.rank
    q = np.empty(values.shape[0])
    for block in row_blocks(values.shape[0]):
        V = values[block]
        Y = V @ ev.scoring
        kept, off = Y[:, :rank], Y[:, rank:]
        q[block] = np.einsum("ij,ij->i", kept, kept)
        if rank < ev.basis.size:
            # Squared norms on both sides: no square root per row.
            resid = np.einsum("ij,ij->i", off, off)
            norm = np.einsum("ij,ij->i", V, V)
            q[block][resid > OFF_RANGE_TOL**2 * norm] = np.inf
    return q


def cf_from_inverse(q: np.ndarray) -> np.ndarray:
    """Christoffel function values 1/q, with 0 where q is ``inf``."""
    out = np.zeros_like(q)
    finite = np.isfinite(q)
    out[finite] = 1.0 / q[finite]
    return out


def inverse_scores(evaluators, points) -> np.ndarray:
    """Inverse scores of each row of ``points`` under each evaluator.

    Returns shape (rows, len(evaluators)).  The evaluators share one
    basis, which is evaluated once per row chunk; the chunk is then
    scored against every evaluator.  Points off an evaluator's retained
    eigenspace get ``inf`` in its column.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("expected a 2-D array of query points")
    basis = evaluators[0].basis
    q = np.empty((pts.shape[0], len(evaluators)))
    for block in row_blocks(pts.shape[0]):
        values = eval_monomials_batch(basis, pts[block])
        for k, ev in enumerate(evaluators):
            q[block, k] = inverse_scores_from_values(ev, values)
    return q


def eval_cf_inverse_batch(ev: ChristoffelEvaluator, points) -> np.ndarray:
    """Inverse scores q(x) = v(x)^T M^+ v(x) for each row of ``points``.

    Points off the retained eigenspace get ``inf`` (their Christoffel
    function value is 0).  Values are never negative.
    """
    return inverse_scores([ev], points)[:, 0]


def eval_cf_batch(ev: ChristoffelEvaluator, points) -> np.ndarray:
    """Christoffel function values for each row of ``points`` (0 off range)."""
    return cf_from_inverse(eval_cf_inverse_batch(ev, points))


def eval_cf(ev: ChristoffelEvaluator, x) -> float:
    """Christoffel function value at a single point."""
    return float(eval_cf_batch(ev, _as_row(ev, x))[0])


def eval_cf_inverse(ev: ChristoffelEvaluator, x) -> float:
    """Inverse score at a single point; ``inf`` marks an off-range point."""
    return float(eval_cf_inverse_batch(ev, _as_row(ev, x))[0])


def _as_row(ev, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = x[None]
    if x.ndim != 1 or x.shape[0] != ev.basis.nvars:
        raise ValueError(
            f"query point must have length {ev.basis.nvars}, got shape {x.shape}"
        )
    return x[None, :]


def variational_eval(
    M: MomentMatrix, x, off_range_tol: float = 1e-10
) -> tuple[float, np.ndarray]:
    """Solve min{p^T M p : p(x) = 1} by a dense stationarity solve.

    Returns ``(value, coefficients)`` where the coefficients are expressed
    in the basis of ``M`` and satisfy p(x) = 1.  For a point where the
    infimum is 0 the value is exactly 0.0 and the coefficients certify it:
    p^T M p <= off_range_tol * mass while p(x) = 1.

    This is an independent path from :func:`eval_cf`: it solves the
    bordered system (2M p = nu * v, v^T p = 1) with a least-squares
    factorization instead of reusing the thresholded eigenpairs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = x[None]
    v = eval_monomials_batch(M.basis, x[None, :])[0]
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
    value = max(value, 0.0)
    if value <= off_range_tol * M.mass:
        return 0.0, p
    return value, p


def orthonormal_polynomials(ev: ChristoffelEvaluator) -> np.ndarray:
    """Coefficients of an orthonormal family spanning the retained subspace.

    Row k holds the coefficients (in the evaluator's basis) of
    P_k = eigenvector_k / sqrt(eigenvalue_k).  The Gram matrix of these
    polynomials under the original measure is the rank x rank identity,
    and sum_k P_k(x)^2 equals the inverse score for on-range x.  The
    rows are a read-only view of the evaluator's scoring matrix.
    """
    return ev.scoring[:, : ev.rank].T
