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

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .christoffel import (
    ChristoffelEvaluator,
    ThresholdPolicy,
    as_row,
    build_evaluator,
    build_evaluators,
    eval_cf_inverse_batch,
    inverse_scores,
)
from .datasets import AffineTransform, scale_to_unit_box
from .errors import NumericalError
from .moments import (
    LabeledDataset,
    class_split,
    empirical_moment_matrix,
    is_integer,
    joint_moment_matrix,
)
from .multiindex import (
    basis_dimension,
    enumerate_basis,
    enumerate_tensor_basis,
    enumerate_variety_basis,
)

REJECT_LABEL = 0
# The policy of fit, fit_degrees and the CLI's train and sweep: an absolute
# ridge, so one Cholesky factor per class scores every degree.  Joint
# evaluators default, as ThresholdPolicy() does, to the exact rule rel:1e-10.
MODEL_POLICY = ThresholdPolicy("tikhonov", 1e-10)
# The level of level_scores, as a multiple of a class's mean own inverse
# score.  On a disk, an annulus and a box, at every t from 2 to 16 and at
# 200 and 2000 points per class, 95% of each class's own training points
# had q below 1.8 to 2.8 times that mean.
LEVEL_GAMMA = 3.0


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
    unset a conservative default is derived from the class sizes.  With
    ``policy`` unset it is :data:`MODEL_POLICY`.  This is the one-degree
    case of :func:`fit_degrees`: one pass over the data.
    """
    if degree is None:
        degree = default_degree(dataset)
    return fit_degrees(
        dataset, [degree], policy, scale, class_prior_weights, reject_threshold
    )[0]


def fit_degrees(
    dataset: LabeledDataset,
    degrees: list[int],
    policy: ThresholdPolicy | None = None,
    scale: bool = True,
    class_prior_weights: bool = False,
    reject_threshold: float | None = None,
) -> list[ClassifierModel]:
    """One model per entry of ``degrees``, all fitted from one pass over the data.

    The rescaling and the class split are computed once, and per class the
    moment matrix at ``max(degrees)``, assembled one row block at a time
    (see :func:`empirical_moment_matrix`), so memory does not grow with
    the class size.  The basis is graded, so the degree-t moment matrix is
    its leading ``s_t x s_t`` block.  One :func:`build_evaluators` call per
    class factors that matrix for every entry: under a ``tikhonov`` policy,
    the default, by one Cholesky factor whose leading block each entry's
    evaluator reads; under ``rel`` by a thresholded ``eigh`` of each block.
    Duplicate and unsorted entries are kept in order.  A one-degree call is
    the same arithmetic as a fit at that degree.  The blocks can differ from
    a separate assembly at degree t in the last bits (the matrix product
    sums in a shape-dependent order).  Each degree must be an integer >= 1,
    and the models hold plain Python values.  Other arguments are as in
    :func:`fit`.
    """
    degrees = list(degrees)
    if not degrees:
        raise ValueError("degrees must not be empty")
    if not all(is_integer(t) and t >= 1 for t in degrees):
        raise ValueError(f"degree must be an integer >= 1, got {degrees!r}")
    degrees = [int(t) for t in degrees]
    class_prior_weights = bool(class_prior_weights)
    reject_threshold = None if reject_threshold is None else float(reject_threshold)
    if reject_threshold is not None and not math.isfinite(reject_threshold):
        raise ValueError("reject threshold must be finite")
    if policy is None:
        policy = MODEL_POLICY
    if scale:
        transform = scale_to_unit_box(dataset.points)
        dataset = LabeledDataset(transform.forward(dataset.points), dataset.labels, m=dataset.m)
    else:
        transform = AffineTransform.identity(dataset.n)
    bases = {t: enumerate_basis(dataset.n, t) for t in set(degrees)}
    top = bases[max(degrees)]
    measures = class_split(dataset, class_prior_weights=class_prior_weights)
    evaluators = [[] for _ in degrees]
    for label, measure in enumerate(measures, start=1):
        if measure.points.shape[0] > 1 and np.all(
            measure.points == measure.points[0]
        ):
            warnings.warn(
                f"class {label}: all points identical, moment matrix has rank 1",
                stacklevel=2,
            )
        gram = empirical_moment_matrix(measure, top)
        for k, ev in enumerate(build_evaluators(gram, [bases[t] for t in degrees], policy)):
            evaluators[k].append(ev)
    return [
        ClassifierModel(
            m=dataset.m,
            degree=t,
            evaluators=evaluators[k],
            transform=transform,
            policy=policy,
            class_prior_weights=class_prior_weights,
            reject_threshold=reject_threshold,
        )
        for k, t in enumerate(degrees)
    ]


def _inverse_scores(models: list[ClassifierModel], points) -> list[np.ndarray]:
    """Per-class inverse scores of raw queries under each model, each of shape
    (n_points, m): the one place queries are checked and mapped through a
    model's transform.  Each run of adjacent models that share a transform
    object is scored in one :func:`inverse_scores` pass, which evaluates each
    row chunk in the basis once for all of them."""
    pts = np.asarray(points, dtype=np.float64)
    for model in models:
        if pts.ndim != 2 or pts.shape[1] != model.n:
            raise ValueError(
                f"queries must be a 2-D array with {model.n} columns, "
                f"got shape {pts.shape}"
            )
    out = []
    for _, run in itertools.groupby(models, key=lambda model: id(model.transform)):
        run = list(run)
        # A finite query that the transform maps out of range scores 0.
        with np.errstate(over="ignore"):
            mapped = run[0].transform.forward(pts)
        # Reductions along the short axis of (rows, n) are slow: take the
        # row mask only when some value is not finite.
        far = slice(0)
        if not np.isfinite(mapped).all():
            far = np.isfinite(pts).all(axis=1) & ~np.isfinite(mapped).all(axis=1)
        mapped[far] = 0.0
        q = inverse_scores([ev for model in run for ev in model.evaluators], mapped)
        q[far] = np.inf
        out += np.split(q, np.cumsum([model.m for model in run])[:-1], axis=1)
    return out


def scores_batch(model: ClassifierModel, points) -> np.ndarray:
    """Per-class Christoffel function values, shape (n_points, m)."""
    return 1.0 / _inverse_scores([model], points)[0]


def scores(model: ClassifierModel, x) -> np.ndarray:
    """Score vector (L_1(x), ..., L_m(x)) at a single point."""
    return scores_batch(model, as_row(x, model.n))[0]


def level_scores(model: ClassifierModel) -> np.ndarray:
    """Each class's score level ``mass_j / (LEVEL_GAMMA * d_j)``, shape (m,).

    d_j, the weighted sum of class j's inverse scores at its own training
    points, is read from the stored form by the trace identity
    ``d = rank - eps * ||W||_F^2``, with W the first ``rank`` columns of the
    scoring matrix and eps the ridge (0 under ``rel``, where d is the rank).
    A d_j that is not > 0, as when a huge ridge cancels the difference,
    raises NumericalError.
    """
    eps = model.policy.value if model.policy.mode == "tikhonov" else 0.0
    levels = np.empty(model.m)
    for j, ev in enumerate(model.evaluators):
        d = ev.rank - eps * float(np.sum(ev.scoring[:, : ev.rank] ** 2))
        if not d > 0:
            raise NumericalError(f"class {j + 1}: d = {d!r} under the ridge {eps!r}, no level")
        levels[j] = ev.mass / (LEVEL_GAMMA * d)
    return levels


def _labels(model: ClassifierModel, sc: np.ndarray) -> np.ndarray:
    """Argmax labels of a score matrix: the smallest class index wins ties.
    With a reject threshold configured, rows whose best score falls below it
    get ``REJECT_LABEL`` (0).  A query scoring 0 in every class, as one far
    off every support does, thus gets class 1 unless a threshold is set."""
    labels = np.argmax(sc, axis=1) + 1
    if model.reject_threshold is not None:
        labels[sc.max(axis=1) < model.reject_threshold] = REJECT_LABEL
    return labels


def predict_batch(model: ClassifierModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Labels (see :func:`_labels`) and the score matrix for each row of ``points``."""
    sc = scores_batch(model, points)
    return _labels(model, sc), sc


def classify_batches(models: list[ClassifierModel], points) -> list[np.ndarray]:
    """The labels of :func:`predict_batch` under each model, for the same points.

    Adjacent models that share a transform, as the models of one
    :func:`fit_degrees` call do, are scored in one pass over the points.
    """
    qs = _inverse_scores(models, points)
    return [_labels(model, 1.0 / q) for model, q in zip(models, qs)]


def classify_batch(model: ClassifierModel, points) -> np.ndarray:
    """The labels of :func:`predict_batch`; the one-model case of :func:`classify_batches`."""
    return classify_batches([model], points)[0]


def classify(model: ClassifierModel, x) -> int:
    return int(classify_batch(model, as_row(x, model.n))[0])


def joint_cf(model: ClassifierModel, x, y: float) -> float:
    """Joint Christoffel function on R^n x R via the theta combination.

    Returns [sum_j theta_j(y)^2 / L_j(x)]^(-1).  At integer y = j this is
    the same floating-point value as ``scores(model, x)[j-1]``: the theta
    weights are exactly one and zero there and zero-weight terms are
    skipped, so off-support classes cannot poison the sum.  For y so large
    that the weights or their sum overflow, the sum is ``inf`` and the
    value 0.0, without floating-point warnings.
    """
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y!r}")
    q = _inverse_scores([model], as_row(x, model.n))[0][0]
    with np.errstate(over="ignore"):
        weights = make_theta(model.m).eval_all(y) ** 2
        used = weights != 0.0
        total = weights[used] @ q[used]
    return float(1.0 / total)


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
    return 1.0 / eval_joint_inverse(ev, x, y)


def eval_joint_inverse(ev: ChristoffelEvaluator, x, y: float) -> float:
    """Inverse score of a joint evaluator at the pair (x, y); x has ``n`` coordinates."""
    z = np.hstack([as_row(x, ev.basis.n), [[float(y)]]])
    return float(eval_cf_inverse_batch(ev, z)[0])


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
