"""Model container round trips and byte-level determinism."""

import re

import numpy as np
import pytest

from cfkit import (
    DataError,
    ThresholdPolicy,
    fit,
    load_metadata,
    load_model,
    save_model,
    scores_batch,
)
from conftest import MODEL_CUTS, random_joint_dataset


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


class TestErrors:
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
