"""Model container round trips and byte-level determinism."""

import re

import numpy as np
import pytest

from cfkit import (
    ClassifierModel,
    DataError,
    LabeledDataset,
    ThresholdPolicy,
    fit,
    load_metadata,
    load_model,
    save_model,
    scores_batch,
)
from conftest import (
    MALFORMED_HEADERS,
    MODEL_CUTS,
    chunk_crossing_queries,
    random_joint_dataset,
    rewrite_header,
)


def fitted_model(rng):
    data = random_joint_dataset(rng, 2, 3, [30, 25, 40])
    return fit(data, degree=3)


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

    @pytest.mark.parametrize(
        "edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys()
    )
    def test_malformed_header(self, rng, tmp_path, edit):
        path = tmp_path / "model.cfm"
        save_model(fitted_model(rng), path)
        rewrite_header(path, edit)
        message = re.escape(f"{path}: malformed model header")
        with pytest.raises(DataError, match=message):
            load_model(path)
