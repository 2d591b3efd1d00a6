"""Interpolation basis, fitting, argmax classification, and joint formulas."""

import numpy as np
import pytest

from cfkit import (
    DataError,
    LabeledDataset,
    REJECT_LABEL,
    ShapeSpec,
    ThresholdPolicy,
    build_evaluator,
    class_split,
    classifier,
    classify,
    classify_batch,
    default_degree,
    empirical_moment_matrix,
    enumerate_basis,
    enumerate_tensor_basis,
    eval_cf_batch,
    eval_cf_inverse_batch,
    eval_joint,
    eval_joint_inverse,
    eval_monomials_batch,
    fit,
    fit_degrees,
    gen_shapes,
    joint_cf,
    joint_moment_matrix,
    level_scores,
    load_model,
    make_theta,
    moments,
    sandwich_check,
    save_model,
    scores,
    scores_batch,
    tensor_cf,
    variety_cf,
)
from cfkit.christoffel import inverse_scores
from cfkit.classifier import MODEL_POLICY
from cfkit.moments import BLOCK_FLOATS, EVAL_CHUNK
from cfkit.multiindex import basis_dimension
from conftest import (
    THREE_SHAPES,
    chunk_crossing_queries,
    own_levels,
    random_joint_dataset,
    separated_points,
    traced_peak,
)


def hand_dataset():
    pts = np.array([[-1.0], [0.0], [1.0], [2.0], [3.0], [4.0]])
    return LabeledDataset(pts, [1, 1, 1, 2, 2, 2])


class TestInterpolationBasis:
    def test_two_classes_closed_form(self):
        theta = make_theta(2)
        for y in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.5):
            values = theta.eval_all(y)
            assert values[0] == pytest.approx(2.0 - y, abs=1e-14)
            assert values[1] == pytest.approx(y - 1.0, abs=1e-14)

    def test_three_classes_middle(self):
        theta = make_theta(3)
        for y in (0.0, 1.0, 2.0, 2.5):
            assert theta.eval_all(y)[1] == pytest.approx(
                -(y - 1.0) * (y - 3.0), abs=1e-12
            )

    def test_interpolation_property(self):
        for m in range(1, 9):
            theta = make_theta(m)
            for i in range(1, m + 1):
                expected = np.zeros(m)
                expected[i - 1] = 1.0
                # exact by the product form
                np.testing.assert_array_equal(theta.eval_all(float(i)), expected)

    def test_partition_of_unity(self):
        for m in (2, 3, 5, 8):
            theta = make_theta(m)
            for y in np.linspace(-1.0, m + 1.0, 10):
                assert theta.eval_all(y).sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_sequential_product_bit_for_bit(self, rng):
        def sequential(m, y):
            out = []
            for j in range(1, m + 1):
                num = den = 1.0
                for i in range(1, m + 1):
                    if i != j:
                        num *= y - i
                        den *= j - i
                out.append(num / den)
            return np.array(out)

        for m in range(1, 13):
            theta = make_theta(m)
            ys = [float(y) for y in range(-2, m + 3)]
            ys += [float(y) for y in rng.uniform(-2.0, m + 2.0, size=40)]
            for y in ys:
                np.testing.assert_array_equal(theta.eval_all(y), sequential(m, y))

    def test_class_count_bounds(self):
        with pytest.raises(ValueError):
            make_theta(0)
        with pytest.raises(ValueError):
            make_theta(13)


class TestFit:
    def test_hand_model_inverse_scores(self):
        # The closed form is the exact pseudo-inverse's.
        model = fit(hand_dataset(), degree=1, policy=ThresholdPolicy(), scale=False)
        for x in (-1.0, 0.0, 0.5, 2.0, 4.0):
            sc = scores(model, [x])
            assert 1.0 / sc[0] == pytest.approx(1.0 + 1.5 * x * x, rel=1e-10)
            assert 1.0 / sc[1] == pytest.approx(
                14.5 - 9.0 * x + 1.5 * x * x, rel=1e-10
            )

    def test_scaling_preserves_scores(self):
        # An absolute ridge depends on the coordinates; the exact rule does not.
        raw = fit(hand_dataset(), degree=1, policy=ThresholdPolicy(), scale=False)
        scaled = fit(hand_dataset(), degree=1, policy=ThresholdPolicy(), scale=True)
        queries = np.linspace(-1.5, 4.5, 13)[:, None]
        np.testing.assert_allclose(
            scores_batch(raw, queries), scores_batch(scaled, queries), rtol=1e-9
        )

    def test_full_rank_when_enough_points(self, rng):
        data = random_joint_dataset(rng, 2, 2, [40, 40])
        model = fit(data, degree=2)
        for ev in model.evaluators:
            assert ev.rank == 6

    def test_default_degree_heuristic(self, rng):
        data = random_joint_dataset(rng, 2, 2, [100, 100])
        assert default_degree(data) == 8
        assert fit(data).degree == 8

    def test_empty_class_errors(self):
        data = LabeledDataset(np.zeros((2, 1)), [1, 1], m=2)
        with pytest.raises(DataError, match="class 2"):
            fit(data, degree=1)

    def test_degenerate_class_warns_and_fits(self):
        pts = np.array([[0.0], [0.0], [1.0], [2.0]])
        data = LabeledDataset(pts, [1, 1, 2, 2])
        with pytest.warns(UserWarning, match="rank 1"):
            model = fit(data, degree=1, policy=ThresholdPolicy())
        assert model.evaluators[0].rank == 1

    def test_ridge_path_calls_no_eigen_routine(self, rng, tmp_path, no_eigen_routines):
        # The default model is fitted, saved, loaded and scored by Cholesky
        # and a triangular inverse alone.
        data = random_joint_dataset(rng, 2, 3, [200, 150, 250])
        model = fit(data, degree=8)
        path = tmp_path / "model.cfm"
        save_model(model, path)
        loaded = load_model(path)
        queries = chunk_crossing_queries()
        np.testing.assert_array_equal(scores_batch(model, queries), scores_batch(loaded, queries))
        assert np.all(scores_batch(loaded, data.points) > 0)

    def test_level_scores_shape(self, rng):
        data = random_joint_dataset(rng, 1, 3, [20, 20, 20])
        levels = level_scores(fit(data, degree=2))
        assert levels.shape == (3,)
        assert np.all((levels > 0) & (levels < np.inf))


def traced_fit_peak(n_rows, degree):
    """Peak bytes recorded while one class of ``n_rows`` points is fitted."""
    points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(n_rows, 2))
    data = LabeledDataset(points, np.ones(n_rows, dtype=np.int64))
    return traced_peak(fit, data, degree=degree)[1]


class TestFitDegrees:
    """Every degree of a list from one Gram and one scoring pass per class."""

    def test_each_entry_matches_its_own_fit(self):
        data = gen_shapes(THREE_SHAPES, 700, seed=5)
        queries = chunk_crossing_queries()
        models = fit_degrees(data, [8, 2, 5, 2])
        assert [model.degree for model in models] == [8, 2, 5, 2]
        for model in models:
            alone = fit(data, degree=model.degree)
            np.testing.assert_array_equal(model.transform.center, alone.transform.center)
            np.testing.assert_array_equal(model.transform.scale, alone.transform.scale)
            assert [ev.rank for ev in model.evaluators] == [
                ev.rank for ev in alone.evaluators
            ]
            assert model.evaluators[0].basis == alone.evaluators[0].basis
            assert model.evaluators[0].basis == enumerate_basis(data.n, model.degree)
            shared, separate = scores_batch(model, queries), scores_batch(alone, queries)
            np.testing.assert_array_equal(shared == 0, separate == 0)
            np.testing.assert_allclose(shared, separate, rtol=1e-5, atol=0)
            np.testing.assert_array_equal(
                classify_batch(model, queries), classify_batch(alone, queries)
            )
            np.testing.assert_allclose(level_scores(model), level_scores(alone), rtol=1e-5)

    def test_one_degree_is_the_fit(self, tmp_path):
        data = gen_shapes(THREE_SHAPES, 300, seed=6)
        for t in (3, 7):
            save_model(fit_degrees(data, [t])[0], tmp_path / "list.cfm")
            save_model(fit(data, degree=t), tmp_path / "fit.cfm")
            assert (tmp_path / "list.cfm").read_bytes() == (
                tmp_path / "fit.cfm"
            ).read_bytes()

    def test_one_factor_per_class_scores_every_degree(self):
        # A box and a disk that fill the unit box: each factor's smallest
        # Cholesky pivot stays above 1e-7 to t = 8, so rounding, which the
        # factor amplifies by about its condition, stays below 1e-10
        # relative.  (Two disks, whose pivots fall to 5e-9 at t = 6, agree
        # to about 2e-7; TestFitDegrees' first test bounds such data.)
        specs = [
            ShapeSpec(kind="box", label=1, low=(-1.0, -1.0), high=(1.0, 1.0)),
            ShapeSpec(kind="disk", label=2, center=(0.0, 0.0), radius=1.0),
        ]
        data = gen_shapes(specs, 500, seed=3)
        queries = np.vstack([data.points, gen_shapes(specs, 300, seed=4).points])
        models = fit_degrees(data, [2, 4, 6, 8])
        for k in range(data.m):
            evaluators = [model.evaluators[k] for model in models]
            factor = evaluators[0].factor
            assert factor.shape == (45, 45) and not factor.flags.writeable
            assert all(ev.factor is factor and np.shares_memory(ev.scoring, factor)
                       for ev in evaluators)
            assert (1.0 / np.diag(factor) ** 2).min() > 1e-7
        for model in models:
            alone = fit(data, degree=model.degree)
            np.testing.assert_allclose(
                1.0 / scores_batch(model, queries), 1.0 / scores_batch(alone, queries),
                rtol=1e-10, atol=0,
            )

    def test_one_pass_over_the_data(self, monkeypatch, tmp_path):
        """The fit evaluates each training row once, in the largest basis,
        and saving a model or reading its levels evaluates no basis values."""
        data = gen_shapes(THREE_SHAPES, EVAL_CHUNK + 10, seed=8)
        evaluated = []
        real = moments.eval_monomials_batch

        def counted(basis, points, **kwargs):
            evaluated.append((basis.t, len(points)))
            return real(basis, points, **kwargs)

        monkeypatch.setattr(moments, "eval_monomials_batch", counted)
        models = fit_degrees(data, [2, 6, 4])
        one_pass = [(6, EVAL_CHUNK), (6, 10)] * 3
        assert evaluated == one_pass
        for model in models:
            save_model(model, tmp_path / "model.cfm")
            level_scores(model)
        assert evaluated == one_pass

    def test_level_is_the_own_inverse_score_sum(self):
        """Each level is the class's mass over 3 times the weighted sum of
        its inverse scores at its own training points, read from the stored
        form with no pass over them, under the ridge and the exact rule.
        Both sides carry the rounding that the factor amplifies by about its
        condition: a box and a disk that fill the unit box keep the pivots
        above 1e-7 (see the test above) and agree to 1e-12, while two disks,
        whose pivots fall to 5e-9 at t = 6, agree to about 4e-8."""
        specs = [
            ShapeSpec(kind="box", label=1, low=(-1.0, -1.0), high=(1.0, 1.0)),
            ShapeSpec(kind="disk", label=2, center=(0.0, 0.0), radius=1.0),
        ]
        data = gen_shapes(specs, 500, seed=3)
        for policy in (MODEL_POLICY, ThresholdPolicy("rel", 1e-10)):
            for prior in (False, True):
                models = fit_degrees(data, [8, 2, 6, 4], policy, class_prior_weights=prior)
                for model in models:
                    np.testing.assert_allclose(
                        level_scores(model), own_levels(model, data), rtol=1e-8, atol=0
                    )

    def test_fit_memory_does_not_grow_with_rows(self):
        """The basis is evaluated one row block at a time, so a class four
        times larger raises the peak by its O(rows) arrays, far less than
        the basis values of the extra rows would take."""
        degree = 8
        small = traced_fit_peak(3 * EVAL_CHUNK, degree)
        large = traced_fit_peak(12 * EVAL_CHUNK, degree)
        extra_values = 9 * EVAL_CHUNK * basis_dimension(2, degree) * 8
        assert large - small < extra_values / 4

    def test_high_degree_memory_is_one_block_plus_rows(self):
        """At t = 12 (91 basis entries) a block is sized by bytes, so fit and
        scores_batch each peak below the two arrays of one block plus
        2n + 2m floats per row: the scaled points, the class copies, the
        inverse scores and the scores."""
        data = gen_shapes(THREE_SHAPES, 12500, seed=4)
        bound = 8 * (2 * BLOCK_FLOATS + (2 * data.n + 2 * data.m) * data.n_points)
        model, fit_peak = traced_peak(fit, data, degree=12)
        _, score_peak = traced_peak(scores_batch, model, data.points)
        assert fit_peak < bound and score_peak < bound

    @pytest.mark.parametrize("degrees", [[], [0], [3, 0]])
    def test_rejects_empty_and_zero(self, degrees):
        data = gen_shapes(THREE_SHAPES, 20, seed=7)
        with pytest.raises(ValueError, match="degree"):
            fit_degrees(data, degrees)

    @pytest.mark.parametrize("degree", [2.5, 2.0, True])
    def test_rejects_non_integer_degree(self, degree):
        data = gen_shapes(THREE_SHAPES, 20, seed=7)
        with pytest.raises(ValueError, match="degree must be an integer >= 1"):
            fit(data, degree=degree)

    @pytest.mark.parametrize("reject", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_reject_threshold(self, reject):
        data = gen_shapes(THREE_SHAPES, 20, seed=7)
        with pytest.raises(ValueError, match="reject threshold must be finite"):
            fit_degrees(data, [2], reject_threshold=reject)


class TestClassify:
    def test_hand_model_labels(self):
        model = fit(hand_dataset(), degree=1)
        assert classify(model, [0.0]) == 1
        assert classify(model, [3.0]) == 2

    def test_scores_at_hand_points(self):
        model = fit(hand_dataset(), degree=1, policy=ThresholdPolicy())
        np.testing.assert_allclose(
            scores(model, [0.0]), [1.0, 1.0 / 14.5], rtol=1e-9
        )

    def test_tie_break_smallest_index(self):
        pts = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        model = fit(LabeledDataset(pts, [1, 1, 2, 2]), degree=1, scale=False)
        sc = scores(model, [0.0])
        assert sc[0] == sc[1]  # mirror symmetry is exact here
        assert classify(model, [0.0]) == 1

    def test_tie_break_identical_classes(self):
        pts = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        model = fit(LabeledDataset(pts, [1, 1, 2, 2]), degree=1)
        sc = scores_batch(model, np.linspace(-2, 2, 9)[:, None])
        np.testing.assert_array_equal(sc[:, 0], sc[:, 1])
        assert np.all(classify_batch(model, np.linspace(-2, 2, 9)[:, None]) == 1)

    def test_scalar_point_on_one_dimensional_model(self):
        model = fit(hand_dataset(), degree=1)
        np.testing.assert_array_equal(scores(model, 0.5), scores(model, [0.5]))
        assert classify(model, 0.5) == classify(model, [0.5])
        assert classify(model, np.float64(3.0)) == 2

    @pytest.mark.parametrize("x", [[0.5, 0.5], [[0.5]], []])
    def test_point_of_wrong_shape(self, x):
        model = fit(hand_dataset(), degree=1)
        with pytest.raises(ValueError, match="query point must have length 1"):
            scores(model, x)
        with pytest.raises(ValueError, match="query point must have length 1"):
            classify(model, x)

    def test_scores_nonnegative(self, rng):
        data = random_joint_dataset(rng, 2, 3, [15, 15, 15])
        model = fit(data, degree=2)
        sc = scores_batch(model, rng.uniform(-2, 2, size=(50, 2)))
        assert np.all(sc >= 0)

    def test_reject_option(self, rng):
        data = random_joint_dataset(rng, 1, 2, [20, 20])
        model = fit(data, degree=2, reject_threshold=1e300)
        assert classify(model, [0.0]) == REJECT_LABEL
        model.reject_threshold = None
        assert classify(model, [0.0]) in (1, 2)

    def test_mass_scaling_leaves_argmax_unchanged(self, rng):
        data = random_joint_dataset(rng, 1, 2, [12, 9])
        basis = enumerate_basis(1, 2)
        grid = rng.uniform(-1.5, 1.5, size=(60, 1))
        raw_scores = []
        scaled_scores = []
        for measure in class_split(data):
            M = empirical_moment_matrix(measure, basis)
            raw_scores.append(
                1.0 / eval_cf_inverse_batch(build_evaluator(M), grid)
            )
            scaled = empirical_moment_matrix(
                type(measure)(measure.points, 5.0 * measure.weights, mass=5.0),
                basis,
            )
            scaled_scores.append(
                1.0 / eval_cf_inverse_batch(build_evaluator(scaled), grid)
            )
        raw_scores = np.column_stack(raw_scores)
        scaled_scores = np.column_stack(scaled_scores)
        np.testing.assert_allclose(scaled_scores, 5.0 * raw_scores, rtol=1e-9)
        np.testing.assert_array_equal(
            raw_scores.argmax(axis=1), scaled_scores.argmax(axis=1)
        )

    def test_affine_equivariance(self, rng):
        data = random_joint_dataset(rng, 2, 2, [60, 60])
        data.points[:60] += np.array([2.0, 0.0])  # separate the classes
        angle = 0.7
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        mapped = LabeledDataset(
            data.points @ rot.T * 1.7 + np.array([3.0, -1.0]),
            data.labels,
            m=data.m,
        )
        model = fit(data, degree=3)
        model_mapped = fit(mapped, degree=3)
        queries = rng.uniform(-1, 3, size=(100, 2))
        base = classify_batch(model, queries)
        moved = classify_batch(
            model_mapped, queries @ rot.T * 1.7 + np.array([3.0, -1.0])
        )
        np.testing.assert_array_equal(base, moved)


class TestSharedBasisEvaluation:
    """One basis evaluation per query serves every class's score."""

    def test_scores_batch_equals_per_evaluator_path(self, rank_deficient):
        train, model = rank_deficient
        queries = chunk_crossing_queries()
        shared = scores_batch(model, queries)
        scaled = model.transform.forward(queries)
        separate = np.stack(
            [eval_cf_batch(ev, scaled) for ev in model.evaluators], axis=1
        )
        np.testing.assert_array_equal(shared == 0, separate == 0)
        assert (shared == 0).any() and (shared > 0).any()
        np.testing.assert_allclose(shared, separate, rtol=1e-12, atol=0)

    def test_level_is_own_mean_inverse_score(self, rank_deficient):
        """Under the exact rule d_j is the rank: 11 of 21 on the circle.  The
        box's rank falls to 20 of 21, and nearly all its own points leave
        the retained eigenspace and score 0 (the exact rule's collapse), so
        its own sum is inf while its level still reads the rank."""
        train, model = rank_deficient
        levels, own = level_scores(model), own_levels(model, train)
        np.testing.assert_allclose(levels[:2], own[:2], rtol=1e-8)
        assert levels[0] == model.evaluators[0].mass / (3.0 * 11)
        assert levels[2] == model.evaluators[2].mass / (3.0 * 20) and own[2] == 0.0


class TestJointFormulas:
    def test_integer_label_matches_scores_exactly(self, rng):
        data = random_joint_dataset(rng, 1, 3, [8, 10, 6])
        model = fit(data, degree=2)
        for x in rng.uniform(-1.5, 1.5, size=(10, 1)):
            sc = scores(model, x)
            for j in range(1, 4):
                assert joint_cf(model, x, float(j)) == sc[j - 1]

    @pytest.mark.parametrize("x", [[-2.0], [0.1, 0.2, 0.3], -2.0])
    def test_point_of_wrong_length(self, rng, x):
        model = fit(random_joint_dataset(rng, 2, 2, [12, 12]), degree=2)
        with pytest.raises(ValueError, match="query point must have length 2"):
            joint_cf(model, x, 1.0)

    def test_y_must_be_finite(self, rng):
        model = fit(random_joint_dataset(rng, 1, 2, [10, 10]), degree=2)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="y must be finite"):
                joint_cf(model, [0.3], bad)
        assert 0.0 < joint_cf(model, [0.3], -1.0) < np.inf

    def test_eval_joint_checks_the_x_part(self, rng):
        data = random_joint_dataset(rng, 2, 2, [12, 12])
        ev = tensor_cf(data, 2)
        x = data.points[0]
        assert eval_joint(ev, x, 1.0) == eval_cf_batch(ev, np.append(x, 1.0)[None, :])[0]
        assert eval_joint_inverse(ev, x, 2.0) == eval_cf_inverse_batch(
            ev, np.append(x, 2.0)[None, :]
        )[0]
        for bad in ([0.1], [[0.1, 0.2]], [0.1, 0.2, 1.0]):
            with pytest.raises(ValueError, match="query point must have length 2"):
                eval_joint(ev, bad, 1.0)
            with pytest.raises(ValueError, match="query point must have length 2"):
                eval_joint_inverse(ev, bad, 1.0)

    def test_huge_y_gives_zero_without_warnings(self):
        model = fit(gen_shapes(THREE_SHAPES, 100, seed=0), degree=2)
        # At 1e77 the weights are finite and their weighted sum overflows.
        for y in (1e77, 1e100, 1e200, -1e300):
            assert joint_cf(model, [0.0, 0.0], y) == 0.0
        assert 0.0 < joint_cf(model, [0.0, 0.0], 1e50) < 1e-200

    def test_half_integer_combination(self, rng):
        data = random_joint_dataset(rng, 1, 2, [10, 10])
        model = fit(data, degree=2)
        x = np.array([0.3])
        q = 1.0 / scores(model, x)
        assert joint_cf(model, x, 1.5) == pytest.approx(
            1.0 / (0.25 * (q[0] + q[1])), rel=1e-12
        )
        assert joint_cf(model, x, 0.0) == pytest.approx(
            1.0 / (4.0 * q[0] + q[1]), rel=1e-12
        )

    def test_matches_sequential_sum(self, rng, rank_deficient):
        # Reference: the theta-weighted sum as a loop over the classes,
        # zero weights skipped and an inf term giving 0.  Only the order
        # in which the nonzero terms are added may differ.
        def sequential(weights, q):
            acc = 0.0
            for w, qk in zip(weights, q):
                if w == 0.0:
                    continue
                if np.isinf(qk):
                    return 0.0
                acc += w * qk
            return 1.0 / acc

        train, model = rank_deficient
        theta = make_theta(model.m)
        xs = np.vstack([train.points[::300], rng.uniform(-4.0, 4.0, size=(20, 2))])
        ys = [1.0, 2.0, 3.0] + list(rng.uniform(0.0, 4.0, size=6))
        zero = positive = 0
        for x in xs:
            q = inverse_scores(model.evaluators, model.transform.forward(x[None, :]))[0]
            for y in ys:
                expected = sequential(theta.eval_all(y) ** 2, q)
                got = joint_cf(model, x, y)
                if y == int(y):
                    assert got == expected
                else:
                    assert abs(got - expected) <= 1e-15 * expected
                zero += expected == 0.0
                positive += expected > 0.0
        assert zero and positive

    def test_variety_single_class_reduces_to_plain(self, rng):
        pts = rng.uniform(-1, 1, size=(15, 1))
        data = LabeledDataset(pts, np.ones(15, dtype=int))
        joint_ev = variety_cf(data, 3)
        plain_ev = build_evaluator(
            empirical_moment_matrix(
                class_split(data)[0], enumerate_basis(1, 3)
            )
        )
        for x in rng.uniform(-1.2, 1.2, size=6):
            assert eval_joint(joint_ev, [x], 1.0) == pytest.approx(
                1.0 / float(eval_cf_inverse_batch(plain_ev, [[x]])[0]),
                rel=1e-9,
            )

    def test_joint_positive_at_samples(self, rng):
        data = random_joint_dataset(rng, 1, 2, [6, 6])
        ev = variety_cf(data, 2)
        for x, y in zip(data.points, data.labels):
            assert eval_joint(ev, x, float(y)) > 0

    def test_tensor_matrix_matches_per_class_scores(self, rng):
        # the per-class-normalized joint measure reproduces the scores of a
        # model with probability-normalized class measures
        for _ in range(5):
            data = random_joint_dataset(rng, 1, 2, [12, 17])
            model = fit(data, degree=2, scale=False)
            ev = tensor_cf(data, 2, weighting="per_class")
            for x in rng.uniform(-1.2, 1.2, size=(10, 1)):
                sc = scores(model, x)
                for j in (1, 2):
                    got = eval_joint(ev, x, float(j))
                    assert got == pytest.approx(sc[j - 1], rel=1e-6, abs=1e-12)

    def test_tensor_matrix_matches_prior_weighted_scores(self, rng):
        # the uniform joint measure pairs with frequency-weighted class measures
        data = random_joint_dataset(rng, 1, 2, [12, 17])
        model = fit(data, degree=2, scale=False, class_prior_weights=True)
        ev = tensor_cf(data, 2, weighting="uniform")
        for x in rng.uniform(-1.2, 1.2, size=(10, 1)):
            sc = scores(model, x)
            for j in (1, 2):
                assert eval_joint(ev, x, float(j)) == pytest.approx(
                    sc[j - 1], rel=1e-6, abs=1e-12
                )

    def test_tensor_matrix_matches_theta_combination(self, rng):
        # the joint inverse score at any real y equals the theta-weighted
        # sum of per-class inverse scores (checked off the integer grid)
        for _ in range(5):
            m = int(rng.integers(2, 4))
            data = random_joint_dataset(rng, 1, m, list(rng.integers(8, 14, m)))
            t = int(rng.integers(1, 4))
            ev = tensor_cf(data, t, weighting="per_class")
            theta = make_theta(m)
            basis = enumerate_basis(1, t)
            class_q = []
            for measure in class_split(data):
                class_ev = build_evaluator(
                    empirical_moment_matrix(measure, basis)
                )
                class_q.append(class_ev)
            for x in rng.uniform(-1.1, 1.1, size=(8, 1)):
                for y in (0.5, 1.3, 2.5):
                    weights = theta.eval_all(y) ** 2
                    expected = 0.0
                    for j in range(m):
                        q = float(eval_cf_inverse_batch(class_q[j], x[None, :])[0])
                        expected += weights[j] * q
                    got = eval_joint_inverse(ev, x, y)
                    if np.isinf(expected) or np.isinf(got):
                        assert np.isinf(expected) and np.isinf(got)
                    else:
                        assert got == pytest.approx(expected, rel=1e-6)

    def test_tensor_matrix_identity_against_dense_inverse(self, rng):
        # brute-force inversion oracle on a full-rank instance
        data = random_joint_dataset(rng, 1, 2, [10, 10])
        basis = enumerate_tensor_basis(1, 2, 2)
        M = joint_moment_matrix(data, basis, "per_class")
        dense = np.linalg.inv(M.entries)
        ev = tensor_cf(data, 2, weighting="per_class")
        for x in rng.uniform(-1, 1, size=4):
            for y in (1.0, 2.0, 1.5):
                v = eval_monomials_batch(basis, np.array([[x, y]]))[0]
                assert eval_joint_inverse(ev, [x], y) == pytest.approx(
                    float(v @ dense @ v), rel=1e-8
                )


class TestSandwich:
    def test_random_small_datasets(self, rng):
        # well separated atoms keep the moment matrices conditioned well
        # enough for the 1e-9 comparison slack
        for _ in range(10):
            n1, n2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            pts = np.vstack(
                [
                    separated_points(rng, n1, 1, 0.1),
                    separated_points(rng, n2, 1, 0.1),
                ]
            )
            data = LabeledDataset(pts, np.array([1] * n1 + [2] * n2))
            t = int(rng.integers(2, 4))
            xs = np.linspace(-1.3, 1.3, 25)
            grid = np.array([(x, y) for x in xs for y in (1.0, 2.0)])
            report = sandwich_check(data, t, grid)
            assert report.n_points == 50
            assert report.n_violations == 0, report.violations

    def test_degenerate_single_point_classes(self):
        data = LabeledDataset(np.array([[0.2], [-0.4]]), [1, 2])
        grid = np.array([(x, y) for x in np.linspace(-1, 1, 10) for y in (1.0, 2.0)])
        report = sandwich_check(data, 2, grid)
        assert report.n_violations == 0

    def test_tensor_dominates_variety_at_same_degree(self, rng):
        # the tensor space contains the variety space at equal degree, so
        # its inverse scores are pointwise at least as large
        data = random_joint_dataset(rng, 1, 2, [5, 4])
        low = variety_cf(data, 3)
        mid = tensor_cf(data, 3)
        for x in np.linspace(-1.2, 1.2, 20):
            for y in (1.0, 2.0):
                a = eval_joint_inverse(low, [x], y)
                b = eval_joint_inverse(mid, [x], y)
                if np.isinf(a):
                    assert np.isinf(b)
                else:
                    assert a <= b + 1e-9 * (1 + abs(a))

    def test_crafted_scores_report_every_branch(self, monkeypatch):
        # Inverse scores per joint point under the variety basis at t,
        # the tensor basis at t and the variety basis at t + m - 1.
        inf = np.inf
        table = {
            ("variety", 2): [1.0, inf, inf, 1.0 + 1e-10, 3.0, 3.0, 1.0],
            ("tensor", 2): [2.0, inf, 2.0, 1.0, 5.0, 2.0, inf],
            ("variety", 3): [3.0, inf, inf, 1.0, 4.0, 1.0, 7.0],
        }
        monkeypatch.setattr(
            classifier, "variety_cf", lambda data, t, policy: ("variety", t)
        )
        monkeypatch.setattr(
            classifier, "tensor_cf", lambda data, t, policy: ("tensor", t)
        )
        monkeypatch.setattr(
            classifier, "eval_cf_inverse_batch", lambda ev, pts: np.array(table[ev])
        )
        data = LabeledDataset(np.array([[0.0], [1.0]]), [1, 2])
        grid = np.zeros((7, 2))
        report = sandwich_check(data, 2, grid)
        # point 1: b = inf twice; point 3: within the slack; point 2 and
        # point 6: a = inf against a finite b; points 4 and 5: beyond it
        assert report.violations == [
            (2, "variety<=tensor", inf, 2.0),
            (4, "tensor<=variety+", 5.0, 4.0),
            (5, "variety<=tensor", 3.0, 2.0),
            (5, "tensor<=variety+", 2.0, 1.0),
            (6, "tensor<=variety+", inf, 7.0),
        ]
        assert report.n_points == 7 and report.n_violations == 5
        assert report.max_excess == inf

        for key in table:
            table[key] = table[key][3:6]
        report = sandwich_check(data, 2, grid[:3])
        assert report.n_violations == 3
        assert report.max_excess == 2.0 - 1.0 - 1e-9 * (1.0 + 2.0)

    def test_rejects_tikhonov_policy(self, rng):
        data = random_joint_dataset(rng, 1, 2, [4, 4])
        with pytest.raises(ValueError):
            sandwich_check(
                data, 2, np.array([[0.0, 1.0]]),
                policy=ThresholdPolicy("tikhonov", 1e-8),
            )


class TestSeparation:
    def test_disjoint_disks_interior_points_win(self, rng):
        from cfkit import ShapeSpec, epsilon_interior_mask, gen_shapes

        specs = [
            ShapeSpec(kind="disk", label=1, center=(-2.0, 0.0), radius=1.0),
            ShapeSpec(kind="disk", label=2, center=(2.0, 0.0), radius=1.0),
        ]
        train = gen_shapes(specs, 500, seed=11)
        test = gen_shapes(specs, 200, seed=12)
        model = fit(train, degree=4)
        keep = epsilon_interior_mask(test.points, specs, 0.1, test.labels)
        sc = scores_batch(model, test.points[keep])
        truth = test.labels[keep]
        own = sc[np.arange(truth.size), truth - 1]
        other = sc[np.arange(truth.size), 2 - truth]
        assert np.all(own > other)


class TestHighDegree:
    def test_two_disks_keep_their_own_points(self):
        specs = [
            ShapeSpec(kind="disk", label=1, center=(-2.0, 0.0), radius=1.0),
            ShapeSpec(kind="disk", label=2, center=(2.0, 0.0), radius=1.0),
        ]
        train = gen_shapes(specs, 500, seed=21)
        test = gen_shapes(specs, 500, seed=22)
        rows = np.arange(train.n_points)
        for t in (6, 8, 12):
            model = fit(train, degree=t)
            own = scores_batch(model, train.points)[rows, train.labels - 1]
            assert (own == 0).mean() == 0.0, t
            assert (classify_batch(model, test.points) == test.labels).mean() == 1.0, t

    def test_three_shapes_keep_their_own_points(self):
        train = gen_shapes(THREE_SHAPES, 300, seed=31)
        test = gen_shapes(THREE_SHAPES, 300, seed=32)
        rows = np.arange(train.n_points)
        for t in (6, 8, 12, 14):
            model = fit(train, degree=t)
            own = scores_batch(model, train.points)[rows, train.labels - 1]
            assert (own == 0).mean() == 0.0, t
            assert (classify_batch(model, test.points) == test.labels).mean() == 1.0, t


class TestRidgeScale:
    """Under the ridge default a class's scale is its effective dimension
    d = s - eps ||R||_F^2, and structural rank loss shows as a large q."""

    def test_mean_own_score_is_the_trace_identity(self):
        # tr(G (G + eps I)^-1) = s - eps tr((G + eps I)^-1), and R R^T is that inverse.
        specs = [
            ShapeSpec(kind="disk", label=1, center=(-2.0, 0.0), radius=1.0),
            ShapeSpec(kind="disk", label=2, center=(2.0, 0.0), radius=1.0),
        ]
        train = gen_shapes(specs, 500, seed=21)
        models = fit_degrees(train, [2, 4, 6, 8, 12])
        scaled = models[0].transform.forward(train.points)
        for model in models:
            for j, ev in enumerate(model.evaluators):
                own = eval_cf_inverse_batch(ev, scaled[train.labels == j + 1])
                d = ev.basis.size - MODEL_POLICY.value * np.sum(ev.scoring**2)
                assert own.mean() == pytest.approx(d, rel=1e-6), (model.degree, j)

    def test_circle_scores_small_on_it_and_large_inside(self, rank_deficient):
        train, _ = rank_deficient
        rng = np.random.default_rng(3)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=(2, 2000))
        radius = 0.98 * np.sqrt(rng.uniform(size=2000))
        on = np.stack([np.cos(angle[0]) - 3.0, np.sin(angle[0])], axis=1)
        inside = np.stack([radius * np.cos(angle[1]) - 3.0, radius * np.sin(angle[1])], axis=1)
        for model in fit_degrees(train, [5, 8, 12]):
            assert model.policy == MODEL_POLICY
            circle = model.evaluators[0]
            s = circle.basis.size
            for points, low, high in ((on, 0.0, 1.0), (inside, 1000.0, np.inf)):
                q = eval_cf_inverse_batch(circle, model.transform.forward(points)) / s
                assert low < q.min() and q.max() < high, model.degree
