"""Model container round trips and byte-level determinism."""

import re

import numpy as np
import pytest

from cfkit import (
    ChristoffelEvaluator,
    ClassifierModel,
    DataError,
    LabeledDataset,
    ThresholdPolicy,
    class_split,
    empirical_moment_matrix,
    enumerate_basis,
    fit,
    fit_degrees,
    load_metadata,
    load_model,
    persist,
    save_model,
    scores_batch,
)
from conftest import (
    MALFORMED_HEADERS,
    MODEL_CUTS,
    chunk_crossing_queries,
    random_joint_dataset,
    reshape_array,
    rewrite_header,
    set_model_float,
)


def fitted_model(rng, policy=None):
    data = random_joint_dataset(rng, 2, 3, [30, 25, 40])
    return fit(data, degree=3, policy=policy)


class TestRoundTrip:
    def test_scores_bit_identical(self, rng, tmp_path):
        model = fitted_model(rng)
        path = tmp_path / "model.cfm"
        save_model(model, path)
        loaded = load_model(path)
        queries = rng.uniform(-2, 2, size=(100, 2))
        before = scores_batch(model, queries)
        after = scores_batch(loaded, queries)
        np.testing.assert_array_equal(before, after)

    def test_rank_deficient_scores_bit_identical(self, rank_deficient, tmp_path):
        _, model = rank_deficient
        assert model.degree >= 5
        path = tmp_path / "model.cfm"
        save_model(model, path)
        loaded = load_model(path)
        queries = chunk_crossing_queries()
        before = scores_batch(model, queries)
        assert (before == 0).any() and (before > 0).any()
        np.testing.assert_array_equal(before, scores_batch(loaded, queries))

    def test_factor_of_a_lower_degree_round_trips(self, rng, tmp_path):
        # The t = 2 model of a fit_degrees call reads the leading 6 x 6 block
        # of each class's t = 4 factor; it stores that block alone.
        data = random_joint_dataset(rng, 2, 3, [30, 25, 40])
        model = fit_degrees(data, [2, 4])[0]
        assert model.evaluators[0].factor.shape == (15, 15)
        path = tmp_path / "model.cfm"
        save_model(model, path)
        shapes = {a["name"]: a["shape"] for a in load_metadata(path)["arrays"]}
        assert [shapes.get(f"factor_{k}") for k in (1, 2, 3)] == [[6, 6]] * 3
        assert not any(name.startswith("eigen") for name in shapes)
        loaded = load_model(path)
        for ours, theirs in zip(model.evaluators, loaded.evaluators):
            np.testing.assert_array_equal(ours.scoring, theirs.scoring)
            assert not theirs.scoring.flags.writeable
        queries = chunk_crossing_queries()
        np.testing.assert_array_equal(scores_batch(model, queries), scores_batch(loaded, queries))

    def test_eigenpair_tikhonov_file_loads(self, rng, tmp_path):
        # Before the ridge factor, a tikhonov model was stored as the
        # eigenpairs of M + eps I, in descending order, with threshold 0.0.
        data = random_joint_dataset(rng, 2, 3, [30, 25, 40])
        ridge = fit(data, degree=3)
        basis = enumerate_basis(2, 3)
        scaled = LabeledDataset(ridge.transform.forward(data.points), data.labels)
        evaluators = []
        for measure in class_split(scaled):
            M = empirical_moment_matrix(measure, basis)
            lam, E = np.linalg.eigh(M.entries + ridge.policy.value * np.eye(M.size))
            evaluators.append(ChristoffelEvaluator(basis, lam[::-1], E[:, ::-1], 0.0, M.mass))
        eigen = ClassifierModel(3, 3, evaluators, ridge.transform, ridge.policy,
                                train_score_floor=ridge.train_score_floor)
        path = tmp_path / "model.cfm"
        save_model(eigen, path)
        names = {a["name"] for a in load_metadata(path)["arrays"]}
        assert {"eigenvalues_1", "eigenvectors_3"} <= names and "factor_1" not in names
        loaded = load_model(path)
        assert loaded.policy == ThresholdPolicy("tikhonov", 1e-10)
        assert all(ev.factor is None and ev.rank == 10 for ev in loaded.evaluators)
        queries = chunk_crossing_queries()
        before = scores_batch(eigen, queries)
        np.testing.assert_array_equal(before, scores_batch(loaded, queries))
        np.testing.assert_allclose(before, scores_batch(ridge, queries), rtol=1e-6)

    def test_fields_preserved(self, rng, tmp_path):
        data = random_joint_dataset(rng, 1, 2, [12, 12])
        model = fit(
            data,
            degree=2,
            policy=ThresholdPolicy("tikhonov", 1e-7),
            class_prior_weights=True,
            reject_threshold=0.25,
        )
        path = tmp_path / "model.cfm"
        save_model(model, path, metadata={"seed": 7, "dataset_sha256": "abc"})
        loaded = load_model(path)
        assert loaded.m == model.m
        assert loaded.degree == model.degree
        assert loaded.policy == model.policy
        assert loaded.class_prior_weights is True
        assert loaded.reject_threshold == 0.25
        np.testing.assert_array_equal(
            loaded.train_score_floor, model.train_score_floor
        )
        np.testing.assert_array_equal(
            loaded.transform.center, model.transform.center
        )
        for ours, theirs in zip(model.evaluators, loaded.evaluators):
            np.testing.assert_array_equal(ours.scoring, theirs.scoring)
            np.testing.assert_array_equal(ours.eigenvalues, theirs.eigenvalues)
            np.testing.assert_array_equal(ours.eigenvectors, theirs.eigenvectors)
            assert ours.threshold == theirs.threshold
            assert ours.mass == theirs.mass

    def test_numpy_scalar_arguments_save_and_load(self, rng, tmp_path):
        data = random_joint_dataset(rng, 2, 2, [20, 20])
        data = LabeledDataset(data.points, data.labels, m=np.int64(2))
        model = fit(data, degree=np.int64(2), class_prior_weights=np.bool_(True),
                    reject_threshold=np.float32(0.25))
        path = tmp_path / "model.cfm"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded.degree) is int and loaded.degree == 2
        assert type(loaded.m) is int and loaded.m == 2
        assert loaded.class_prior_weights is True and loaded.reject_threshold == 0.25
        queries = rng.uniform(-2, 2, size=(50, 2))
        np.testing.assert_array_equal(scores_batch(model, queries), scores_batch(loaded, queries))

    def test_numpy_policy_value_saves_as_float(self, rng, tmp_path):
        data = random_joint_dataset(rng, 2, 2, [20, 20])
        model = fit(data, degree=2, policy=ThresholdPolicy("rel", np.int64(0)))
        path = tmp_path / "model.cfm"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded.policy.value) is float and loaded.policy == model.policy

    def test_metadata_readable_without_arrays(self, rng, tmp_path):
        model = fitted_model(rng)
        path = tmp_path / "model.cfm"
        save_model(model, path, metadata={"seed": 3})
        header = load_metadata(path)
        assert header["metadata"]["seed"] == 3
        assert header["format"] == 1


class TestDeterminism:
    def test_repeated_save_identical_bytes(self, rng, tmp_path):
        model = fitted_model(rng)
        first = tmp_path / "one.cfm"
        second = tmp_path / "two.cfm"
        save_model(model, first, metadata={"seed": 1})
        save_model(model, second, metadata={"seed": 1})
        assert first.read_bytes() == second.read_bytes()

    def test_non_finite_header_value_not_written(self, rng, tmp_path):
        model = fitted_model(rng)
        model.reject_threshold = float("nan")
        path = tmp_path / "model.cfm"
        with pytest.raises(ValueError, match="JSON compliant"):
            save_model(model, path)
        assert not path.exists()


class TestErrors:
    def test_model_without_floor_is_not_saved(self, rng, tmp_path):
        fitted = fitted_model(rng)
        model = ClassifierModel(fitted.m, fitted.degree, fitted.evaluators,
                                fitted.transform, fitted.policy)
        assert model.train_score_floor is None
        path = tmp_path / "model.cfm"
        with pytest.raises(ValueError, match="train_score_floor"):
            save_model(model, path)
        assert not path.exists()
        # The same evaluators with the floors that fit computed save and load.
        save_model(fitted, path)
        np.testing.assert_array_equal(load_model(path).train_score_floor, fitted.train_score_floor)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.cfm"
        path.write_bytes(b"not a model")
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("cut", MODEL_CUTS.values(), ids=MODEL_CUTS.keys())
    def test_truncated_file(self, rng, tmp_path, cut):
        path = tmp_path / "model.cfm"
        save_model(fitted_model(rng), path)
        path.write_bytes(path.read_bytes()[:cut])
        message = re.escape(f"{path}: truncated model file")
        with pytest.raises(DataError, match=message):
            load_model(path)
        if cut == MODEL_CUTS["payload"]:
            assert load_metadata(path)["format"] == 1  # the header is whole
        else:
            with pytest.raises(DataError, match=message):
                load_metadata(path)

    @pytest.mark.parametrize("name", MALFORMED_HEADERS)
    def test_malformed_header(self, rng, tmp_path, name):
        path = tmp_path / "model.cfm"
        # An edit of the eigenpair arrays needs a model stored as eigenpairs.
        policy = ThresholdPolicy() if name.startswith("eigen") else None
        save_model(fitted_model(rng, policy), path)
        rewrite_header(path, MALFORMED_HEADERS[name])
        message = re.escape(f"{path}: malformed model header")
        with pytest.raises(DataError, match=message):
            load_model(path)

    def test_oversized_factor_header_is_rejected_before_the_basis(
        self, rng, tmp_path, monkeypatch
    ):
        # Zero columns cost no payload, so the factor's rows alone do not
        # bound the basis size; its square shape does.
        def unreachable(n, t):
            raise AssertionError("enumerate_basis reached")

        def edit(header):
            header = reshape_array(header, "factor_1", lambda r, c: [5001, 0])
            return {**header, "n": 5000}

        monkeypatch.setattr(persist, "enumerate_basis", unreachable)
        path = tmp_path / "model.cfm"
        save_model(fitted_model(rng), path)
        rewrite_header(path, edit)
        with pytest.raises(DataError, match=re.escape(f"{path}: malformed model header")):
            load_model(path)

    # Degree 3 in 2-D: each factor is 10 x 10, stored row by row, so float
    # 0 and 11 are on its diagonal, 1 above it and 10 below it.
    @pytest.mark.parametrize(
        "index, value",
        [(0, 0.0), (11, -1.0), (0, np.nan), (1, np.nan), (1, np.inf), (99, -np.inf),
         (10, 1e-3), (10, -5e-324)],
    )
    def test_out_of_range_factor(self, rng, tmp_path, index, value):
        path = tmp_path / "model.cfm"
        save_model(fitted_model(rng), path)
        assert load_model(path).evaluators[0].scoring.shape == (10, 10)
        set_model_float(path, "factor_1", value, index)
        with pytest.raises(DataError, match=re.escape(f"{path}: malformed model header")):
            load_model(path)
