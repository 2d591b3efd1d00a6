"""Evaluator construction, closed-form values, and structural identities."""

import numpy as np
import pytest

from cfkit import (
    MomentMatrix,
    NumericalError,
    ThresholdPolicy,
    build_evaluator,
    empirical_moment_matrix,
    enumerate_basis,
    enumerate_variety_basis,
    eval_cf,
    eval_cf_batch,
    eval_cf_inverse,
    eval_cf_inverse_batch,
    eval_monomials_batch,
    fit,
    fit_degrees,
    gen_shapes,
    orthonormal_polynomials,
    uniform_measure,
    variational_eval,
)
from cfkit.christoffel import OFF_RANGE_TOL, PANEL_WIDTH, build_evaluators, inverse_scores
from cfkit.moments import EVAL_CHUNK
from cfkit.multiindex import MonomialBasis
from conftest import THREE_SHAPES, chunk_crossing_queries, random_measure


def three_point_evaluator():
    M = empirical_moment_matrix(
        uniform_measure([-1.0, 0.0, 1.0]), enumerate_basis(1, 1)
    )
    return M, build_evaluator(M)


class TestBuildEvaluator:
    def test_diagonal_matrix(self):
        _, ev = three_point_evaluator()
        assert ev.rank == 2
        np.testing.assert_allclose(ev.eigenvalues, [1.0, 2.0 / 3.0], rtol=1e-14)
        assert ev.eigenvalues[0] >= ev.eigenvalues[1] > 0

    def test_single_point_rank_one(self):
        M = empirical_moment_matrix(uniform_measure([0.5]), enumerate_basis(1, 1))
        assert build_evaluator(M).rank == 1

    def test_identity_matrix_gives_norm_squared(self):
        basis = enumerate_basis(1, 1)
        M = MomentMatrix(basis=basis, entries=np.eye(2), mass=1.0)
        ev = build_evaluator(M)
        x = np.sqrt(3.0)
        assert eval_cf_inverse(ev, [x]) == pytest.approx(1.0 + x * x, rel=1e-14)

    def test_eigenvectors_orthonormal(self, rng):
        measure = random_measure(rng, 2, 12)
        ev = build_evaluator(
            empirical_moment_matrix(measure, enumerate_basis(2, 3))
        )
        gram = ev.eigenvectors.T @ ev.eigenvectors
        np.testing.assert_allclose(gram, np.eye(ev.rank), atol=1e-10)
        assert ev.rank <= min(ev.basis.size, 12)

    def test_rejects_asymmetric(self):
        basis = enumerate_basis(1, 1)
        M = MomentMatrix(basis=basis, entries=np.array([[1.0, 0.5], [0.0, 1.0]]), mass=1.0)
        with pytest.raises(NumericalError):
            build_evaluator(M)

    def test_degenerate_spectrum_errors(self):
        basis = enumerate_basis(1, 1)
        M = MomentMatrix(basis=basis, entries=np.zeros((2, 2)), mass=1.0)
        with pytest.raises(NumericalError):
            build_evaluator(M)

    def test_policy_parsing(self):
        policy = ThresholdPolicy.from_string("tikhonov:1e-6")
        assert policy.mode == "tikhonov" and policy.value == 1e-6
        assert ThresholdPolicy.from_string(policy.to_string()) == policy
        with pytest.raises(ValueError):
            ThresholdPolicy.from_string("rel")
        with pytest.raises(ValueError):
            ThresholdPolicy(mode="chop", value=0.1)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_policy_value_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="finite and >= 0"):
            ThresholdPolicy.from_string(f"rel:{value}")

    @pytest.mark.parametrize("value", [True, np.bool_(False), "1e-3", None])
    def test_policy_value_real_number(self, value):
        with pytest.raises(ValueError, match="must be a real number"):
            ThresholdPolicy("rel", value)

    def test_policy_value_stored_as_float(self):
        for value in (np.int64(0), np.float32(0.5), 1):
            assert type(ThresholdPolicy("rel", value).value) is float

    @pytest.mark.parametrize("value", ["0", "-0.0"])
    def test_tikhonov_value_positive(self, value):
        with pytest.raises(ValueError, match="tikhonov value must be > 0"):
            ThresholdPolicy.from_string(f"tikhonov:{value}")
        assert ThresholdPolicy.from_string(f"rel:{value}").value == 0.0

    def test_tikhonov_keeps_full_rank(self):
        M = empirical_moment_matrix(uniform_measure([0.25]), enumerate_basis(1, 2))
        ev = build_evaluator(M, ThresholdPolicy("tikhonov", 1e-8))
        assert ev.rank == 3
        # strictly positive score even far from the single support point
        assert eval_cf(ev, [5.0]) > 0

    def test_evaluators_of_leading_blocks(self, rng):
        # rel: each block's eigen form, bit for bit as a build_evaluator of the
        # block alone; tikhonov: views of one factor of the whole matrix.
        M = empirical_moment_matrix(random_measure(rng, 2, 60), enumerate_basis(2, 4))
        bases = [enumerate_basis(2, t) for t in (1, 4, 2)]
        for ev, basis in zip(build_evaluators(M, bases), bases):
            s = basis.size
            alone = build_evaluator(MomentMatrix(basis, M.entries[:s, :s], M.mass))
            assert ev.basis is basis and ev.threshold == alone.threshold
            np.testing.assert_array_equal(ev.scoring, alone.scoring)
        ridge = build_evaluators(M, bases, ThresholdPolicy("tikhonov", 1e-8))
        assert len({id(ev.factor) for ev in ridge}) == 1
        assert [ev.scoring.shape for ev in ridge] == [(3, 3), (15, 15), (6, 6)]
        assert ridge[0].factor.shape == (15, 15) and not ridge[0].factor.flags.writeable

    def test_tikhonov_matches_the_eigenpairs_of_the_shifted_matrix(self, rng):
        # The eigh(M + eps I) path that tikhonov took before the ridge
        # factor, kept here as the reference.
        M = empirical_moment_matrix(random_measure(rng, 2, 400), enumerate_basis(2, 3))
        eps = 1e-6
        lam, E = np.linalg.eigh(M.entries + eps * np.eye(M.size))
        queries = rng.uniform(-1.5, 1.5, size=(200, 2))
        expected = ((eval_monomials_batch(M.basis, queries) @ E) ** 2 / lam).sum(axis=1)
        got = eval_cf_inverse_batch(build_evaluator(M, ThresholdPolicy("tikhonov", eps)), queries)
        cond = lam[-1] / lam[0]
        assert cond < 1e3  # well conditioned, so rounding alone separates the two
        np.testing.assert_allclose(got, expected, rtol=10 * cond * np.finfo(float).eps)

    def test_tikhonov_runs_no_eigen_routine(self, rng, no_eigen_routines):
        M = empirical_moment_matrix(random_measure(rng, 2, 400), enumerate_basis(2, 3))
        ev = build_evaluator(M, ThresholdPolicy("tikhonov", 1e-6))
        assert ev.eigenvalues is None and ev.rank == M.size
        assert np.all(eval_cf_inverse_batch(ev, rng.uniform(-1.5, 1.5, size=(20, 2))) > 0)

    def test_tikhonov_too_small_for_a_singular_matrix_errors(self):
        # M = v v^T with v = (1, 0.5, 0.25) is exactly rank 1, and 1e-20 is
        # lost against its entries.  The eigh path kept the one positive
        # eigenvalue and dropped the others; Cholesky refuses the matrix.
        M = empirical_moment_matrix(uniform_measure([0.5]), enumerate_basis(1, 2))
        with pytest.raises(NumericalError, match="not positive definite"):
            build_evaluator(M, ThresholdPolicy("tikhonov", 1e-20))


class TestEvalCf:
    def test_three_point_values(self):
        _, ev = three_point_evaluator()
        assert eval_cf(ev, [0.0]) == pytest.approx(1.0, rel=1e-12)
        assert eval_cf(ev, [1.0]) == pytest.approx(0.4, rel=1e-12)
        assert eval_cf(ev, [2.0]) == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_inverse_values(self):
        _, ev = three_point_evaluator()
        assert eval_cf_inverse(ev, [-1.0]) == pytest.approx(2.5, rel=1e-12)
        assert eval_cf_inverse(ev, [0.0]) == pytest.approx(1.0, rel=1e-12)

    def test_off_range_is_zero(self):
        M = empirical_moment_matrix(uniform_measure([0.0]), enumerate_basis(1, 1))
        ev = build_evaluator(M)
        assert eval_cf(ev, [1.0]) == 0.0
        assert np.isinf(eval_cf_inverse(ev, [1.0]))

    def test_batch_matches_single(self, rng):
        # batched BLAS products may differ from one-row calls in the last bit
        measure = random_measure(rng, 2, 8)
        ev = build_evaluator(
            empirical_moment_matrix(measure, enumerate_basis(2, 2))
        )
        queries = rng.uniform(-1.5, 1.5, size=(40, 2))
        batch = eval_cf_batch(ev, queries)
        single = np.array([eval_cf(ev, q) for q in queries])
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=0)

    def test_never_negative_and_positive_on_sample(self, rng):
        for _ in range(10):
            measure = random_measure(rng, 1, int(rng.integers(2, 15)))
            ev = build_evaluator(
                empirical_moment_matrix(measure, enumerate_basis(1, 3))
            )
            on_sample = eval_cf_batch(ev, measure.points)
            assert np.all(on_sample > 0)
            off = eval_cf_batch(ev, rng.uniform(-3, 3, size=(30, 1)))
            assert np.all(off >= 0)

    def test_dimension_mismatch(self):
        _, ev = three_point_evaluator()
        with pytest.raises(ValueError):
            eval_cf(ev, [0.0, 1.0])


def two_product_inverse_scores(ev, values):
    """Reference kernel: q = sum C^2 / lambda with C = V E, and a row is off
    range when |V - C E^T| > OFF_RANGE_TOL * |V|."""
    C = values @ ev.eigenvectors
    q = (C * C / ev.eigenvalues).sum(axis=1)
    if ev.rank < ev.basis.size:
        R = values - C @ ev.eigenvectors.T
        resid = np.sqrt((R * R).sum(axis=1))
        norm = np.sqrt((values * values).sum(axis=1))
        q[resid > OFF_RANGE_TOL * norm] = np.inf
    return q


@pytest.fixture(scope="module")
def box_and_disk():
    """3000 points filling [-1, 1]^2 and 3000 in the disk of radius 0.5 at 0,
    and queries in the box: more than one ``EVAL_CHUNK`` block, so two
    blocks at degree 8 and four at degree 12, the last one partial."""
    rng = np.random.default_rng(5)
    box = rng.uniform(-1.0, 1.0, size=(3000, 2))
    radius, angle = 0.5 * np.sqrt(rng.uniform(size=3000)), rng.uniform(0, 2 * np.pi, 3000)
    disk = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return box, disk, rng.uniform(-1.0, 1.0, size=(EVAL_CHUNK + 901, 2))


class TestScoringKernel:
    """One product V W per chunk, W = [E / sqrt(lambda) | D]."""

    @pytest.mark.parametrize("degree", [8, 12])
    def test_matches_two_product_reference_at_high_degree(self, box_and_disk, degree):
        # The box is full rank and every query is on range for it; the disk
        # is rank-deficient and every query is off range for it.
        box, disk, queries = box_and_disk
        basis = enumerate_basis(2, degree)
        values = eval_monomials_batch(basis, queries)
        seen = []  # (full rank, rows on range) per class
        for points in (box, disk):
            ev = build_evaluator(empirical_moment_matrix(uniform_measure(points), basis))
            got = inverse_scores([ev], queries)[:, 0]
            expected = two_product_inverse_scores(ev, values)
            np.testing.assert_array_equal(np.isinf(got), np.isinf(expected))
            on = np.isfinite(expected)
            np.testing.assert_allclose(got[on], expected[on], rtol=1e-11)
            seen.append((ev.rank == basis.size, int(on.sum())))
        assert seen == [(True, queries.shape[0]), (False, 0)]

    def test_matches_two_product_reference(self, rank_deficient):
        _, model = rank_deficient
        scaled = model.transform.forward(chunk_crossing_queries())
        values = eval_monomials_batch(model.evaluators[0].basis, scaled)
        off_range = on_range = 0
        for ev in model.evaluators:
            got = inverse_scores([ev], scaled)[:, 0]
            expected = two_product_inverse_scores(ev, values)
            np.testing.assert_array_equal(np.isinf(got), np.isinf(expected))
            finite = np.isfinite(expected)
            np.testing.assert_allclose(got[finite], expected[finite], rtol=1e-11)
            off_range += int((~finite).sum())
            on_range += int(finite.sum())
        assert off_range and on_range

    def test_complement_is_orthonormal(self, rank_deficient):
        _, model = rank_deficient
        ranks = set()
        for ev in model.evaluators:
            size, rank = ev.basis.size, ev.rank
            assert ev.scoring.shape == (size, size)
            assert not ev.scoring.flags.writeable
            np.testing.assert_array_equal(
                ev.scoring[:, :rank], ev.eigenvectors / np.sqrt(ev.eigenvalues)
            )
            frame = np.hstack([ev.eigenvectors, ev.scoring[:, rank:]])
            np.testing.assert_allclose(frame.T @ frame, np.eye(size), atol=1e-12)
            ranks.add(rank == size)
        assert ranks == {True, False}  # a full-rank evaluator has no D columns


class TestNestedScoring:
    """Evaluators whose bases are leading blocks of the largest share its
    basis values, and score exactly as they do alone."""

    def test_matches_separate_scoring(self, rank_deficient):
        # The circle class is rank-deficient at every degree, so each
        # degree's off-range test needs the norm of its own leading columns.
        train, _ = rank_deficient
        models = fit_degrees(train, [2, 4, 8], policy=ThresholdPolicy())
        queries = models[0].transform.forward(chunk_crossing_queries())
        # Far out: off range or huge at every degree; then overflowing.
        extra = [[40.0, -40.0], [1e200, 0.5], [0.5, -1e200]]
        queries = np.vstack([queries, extra])
        evaluators = [ev for model in models for ev in model.evaluators]
        got = inverse_scores(evaluators, queries)
        for k, ev in enumerate(evaluators):
            np.testing.assert_array_equal(got[:, k], eval_cf_inverse_batch(ev, queries))
        assert np.isfinite(got).any() and np.isinf(got[:-3]).any()
        assert np.isinf(got[-2:]).all()

    def test_shared_factor_matches_separate_scoring(self, rank_deficient):
        # Under the ridge default each class's degrees read one factor and
        # share one panelled product per block, up to the widest size; each
        # column is bit for bit its evaluator's alone, a product of its own
        # size.
        train, _ = rank_deficient
        models = fit_degrees(train, [2, 8, 4])
        queries = models[0].transform.forward(chunk_crossing_queries())
        queries = np.vstack([queries, [[40.0, -40.0], [1e200, 0.5]]])
        evaluators = [ev for model in models for ev in model.evaluators]
        assert len({id(ev.factor) for ev in evaluators}) == train.m
        got = inverse_scores(evaluators, queries)
        for k, ev in enumerate(evaluators):
            np.testing.assert_array_equal(got[:, k], eval_cf_inverse_batch(ev, queries))
        assert np.isfinite(got[:-1]).all() and np.isinf(got[-1]).all()

    @pytest.mark.parametrize(
        "other",
        [
            enumerate_basis(1, 4),
            MonomialBasis(2, 1, "plain", None, parents=[0, 0, 0], variables=[0, 1, 0]),
            enumerate_variety_basis(2, 1, 2),
        ],
        ids=["other-n", "other-order", "other-kind"],
    )
    def test_rejects_basis_that_is_not_a_leading_block(self, other):
        evaluators = [
            build_evaluator(MomentMatrix(basis, np.eye(basis.size), 1.0))
            for basis in (enumerate_basis(2, 2), other)
        ]
        with pytest.raises(ValueError, match="leading blocks"):
            inverse_scores(evaluators, np.zeros((3, 2)))


def full_product_scores(ev, points):
    """Reference kernel: the row sums of the squares of one product V R over
    all rows, V padded with zero rows to a multiple of 16 as ``basis_blocks``
    pads each block; a sum that is not finite reads inf."""
    rows = points.shape[0]
    values = np.zeros((-(-rows // 16) * 16, ev.basis.size), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        values[:rows] = eval_monomials_batch(ev.basis, points)
        Y = np.matmul(values, ev.scoring, out=np.empty(values.shape[::-1]).T)[:rows]
        q = np.einsum("ij,ij->i", Y, Y)
    q[~np.isfinite(q)] = np.inf
    return q


# Rows far past the unit box: the first overflows the basis values from
# degree 3 on, the second the scores from degree 8 on, and the other two
# the basis values at every degree.
OVERFLOWING = [[1e110, 0.5], [1e30, 0.5], [1e200, 0.5], [0.5, -1e200]]


class TestRidgePanels:
    """A ridge factor multiplies in column panels, each reading only the basis
    columns up to its last one, and gives the bits of the full product with
    the zeros below the diagonal.  Each case also scores its last 40 rows
    alone, one block of 48 padded rows."""

    @pytest.fixture(scope="class")
    def train(self):
        return gen_shapes(THREE_SHAPES, 1500, seed=3)

    @pytest.mark.parametrize(
        "degree, size",
        [(2, 6), (14, 120), (12, 91), (13, 105)],
        ids=["narrower-than-a-panel", "whole-panels", "short-last-panel", "one-column-last-panel"],
    )
    def test_matches_the_full_product(self, train, degree, size):
        model = fit(train, degree=degree)
        queries = np.vstack([model.transform.forward(chunk_crossing_queries()), OVERFLOWING])
        assert model.evaluators[0].basis.size == size
        for points in (queries, queries[-40:]):
            got = inverse_scores(model.evaluators, points)
            for k, ev in enumerate(model.evaluators):
                np.testing.assert_array_equal(got[:, k], full_product_scores(ev, points))
            assert np.isfinite(got[:-4]).all() and np.isinf(got[-2:]).all()

    def test_the_cases_span_the_panel_layouts(self):
        # The sizes above: less than one panel, a whole number of them, and
        # several with a shorter last one, of more than one column and of one.
        assert 6 < PANEL_WIDTH
        assert 120 % PANEL_WIDTH == 0 and 120 > PANEL_WIDTH
        assert 91 % PANEL_WIDTH > 1 and 91 > 2 * PANEL_WIDTH
        assert 105 % PANEL_WIDTH == 1

    def test_shared_factor_matches_the_full_products(self, train):
        models = fit_degrees(train, [1, 2, 8, 12])
        queries = np.vstack([models[0].transform.forward(chunk_crossing_queries()), OVERFLOWING])
        evaluators = [ev for model in models for ev in model.evaluators]
        assert len({id(ev.factor) for ev in evaluators}) == train.m
        # Each size ends a panel, so a row that overflows only the larger
        # bases keeps its finite scores at the smaller degrees.  Columns:
        # the three classes at degree 1, then at 2, 8 and 12.
        finite_degrees = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        expected = np.repeat(np.array(finite_degrees, dtype=bool), train.m, axis=1)
        for points in (queries, queries[-40:]):
            got = inverse_scores(evaluators, points)
            for k, ev in enumerate(evaluators):
                np.testing.assert_array_equal(got[:, k], full_product_scores(ev, points))
            assert np.isfinite(got[:-4]).all()
            np.testing.assert_array_equal(np.isfinite(got[-4:]), expected)


class TestVariationalEval:
    def test_closed_form_point(self):
        M, _ = three_point_evaluator()
        value, coeffs = variational_eval(M, [1.0])
        assert value == pytest.approx(0.4, rel=1e-10)
        np.testing.assert_allclose(coeffs, [0.4, 0.6], rtol=1e-10)
        assert coeffs @ [1.0, 1.0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_is_optimal_at_symmetry_point(self):
        M, _ = three_point_evaluator()
        value, coeffs = variational_eval(M, [0.0])
        assert value == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-12)

    def test_certificate_off_range(self):
        M = empirical_moment_matrix(uniform_measure([0.0]), enumerate_basis(1, 1))
        value, cert = variational_eval(M, [1.0])
        assert value == 0.0
        assert cert @ M.entries @ cert <= 1e-10
        assert cert @ [1.0, 1.0] == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(cert, [0.0, 1.0], atol=1e-12)

    def test_matches_eval_cf_on_small_measures(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 3))
            t = int(rng.integers(1, 3))
            measure = random_measure(rng, n, int(rng.integers(2, 7)))
            M = empirical_moment_matrix(measure, enumerate_basis(n, t))
            ev = build_evaluator(M)
            queries = rng.uniform(-1.2, 1.2, size=(20, n))
            fast = eval_cf_batch(ev, queries)
            for i in range(20):
                slow, _ = variational_eval(M, queries[i])
                assert abs(slow - fast[i]) <= 1e-6 * max(slow, fast[i]) + 1e-12


class TestOrthonormalPolynomials:
    def test_diagonal_matrix(self):
        _, ev = three_point_evaluator()
        table = orthonormal_polynomials(ev)
        np.testing.assert_allclose(
            table, [[1.0, 0.0], [0.0, np.sqrt(1.5)]], rtol=1e-14
        )

    def test_identity_matrix_gives_monomials(self):
        # the spectrum is fully degenerate, so the family is the monomials
        # up to order and sign: each row is exactly one signed unit vector
        basis = enumerate_basis(1, 1)
        M = MomentMatrix(basis=basis, entries=np.eye(2), mass=1.0)
        table = np.abs(orthonormal_polynomials(build_evaluator(M)))
        np.testing.assert_allclose(table.max(axis=1), 1.0, atol=1e-14)
        np.testing.assert_allclose((table**2).sum(axis=1), 1.0, atol=1e-14)
        np.testing.assert_allclose(table.sum(axis=0), 1.0, atol=1e-14)

    def test_gram_is_identity_and_sum_of_squares(self, rng):
        measure = random_measure(rng, 2, 50)
        M = empirical_moment_matrix(measure, enumerate_basis(2, 2))
        ev = build_evaluator(M)
        table = orthonormal_polynomials(ev)
        values = eval_monomials_batch(ev.basis, measure.points) @ table.T
        gram = (values * measure.weights[:, None]).T @ values
        np.testing.assert_allclose(gram, np.eye(ev.rank), atol=1e-8)

        queries = rng.uniform(-1, 1, size=(15, 2))
        sum_sq = (eval_monomials_batch(ev.basis, queries) @ table.T) ** 2
        np.testing.assert_allclose(
            sum_sq.sum(axis=1),
            eval_cf_inverse_batch(ev, queries),
            rtol=1e-8,
        )


class TestStructuralIdentities:
    def test_trace_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 3))
            t = int(rng.integers(1, 4))
            measure = random_measure(rng, n, int(rng.integers(3, 30)))
            ev = build_evaluator(
                empirical_moment_matrix(measure, enumerate_basis(n, t))
            )
            mean_inverse = float(
                eval_cf_inverse_batch(ev, measure.points) @ measure.weights
            )
            assert mean_inverse == pytest.approx(ev.rank, rel=1e-8)

    def test_monotone_in_degree(self, rng):
        measure = random_measure(rng, 2, 40)
        grid = rng.uniform(-1.5, 1.5, size=(50, 2))
        previous = None
        for t in range(1, 5):
            ev = build_evaluator(
                empirical_moment_matrix(measure, enumerate_basis(2, t))
            )
            values = eval_cf_batch(ev, grid)
            if previous is not None:
                assert np.all(values <= previous + 1e-10)
            previous = values

    def test_decay_outside_support(self):
        rng = np.random.default_rng(7)
        measure = uniform_measure(rng.uniform(-1, 1, size=20000))
        ratios = []
        for t in range(2, 9):
            ev = build_evaluator(
                empirical_moment_matrix(measure, enumerate_basis(1, t))
            )
            ratios.append(eval_cf(ev, [2.0]) / eval_cf(ev, [0.0]))
        ratios = np.array(ratios)
        assert np.all(np.diff(ratios) < 0)
        # at least geometric decay outside the support
        assert np.all(ratios[1:] / ratios[:-1] < 0.9)
        assert ratios[-1] < 1e-3
