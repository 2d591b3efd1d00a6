"""Confusion matrices and the key-value report."""

import numpy as np
import pytest

from cfkit import (
    DataError,
    ShapeSpec,
    confusion_matrix,
    epsilon_interior_mask,
    evaluate_model,
    fit,
    fit_degrees,
    gen_shapes,
    moments,
    render_report,
    scores_batch,
)
from cfkit.metrics import masked_reports
from cfkit.moments import EVAL_CHUNK

TWO_DISKS = [
    ShapeSpec(kind="disk", label=1, center=(-2.0, 0.0), radius=1.0),
    ShapeSpec(kind="disk", label=2, center=(2.0, 0.0), radius=1.0),
]


class TestConfusionMatrix:
    def test_perfect_predictions(self):
        confusion, rejected = confusion_matrix([1, 1, 2, 2], [1, 1, 2, 2], 2)
        np.testing.assert_array_equal(confusion, [[2, 0], [0, 2]])
        assert rejected.sum() == 0

    def test_rows_sum_to_class_counts(self, rng):
        truth = rng.integers(1, 4, size=200)
        predicted = rng.integers(0, 4, size=200)
        confusion, rejected = confusion_matrix(truth, predicted, 3)
        totals = confusion.sum(axis=1) + rejected
        for j in range(1, 4):
            assert totals[j - 1] == (truth == j).sum()

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            confusion_matrix([1, 4], [1, 1], 3)

    def test_rejected_rows_counted_per_true_class(self):
        truth, predicted = [1, 1, 2, 3, 3, 3], [0, 2, 2, 0, 0, 3]
        confusion, rejected = confusion_matrix(truth, predicted, 3)
        np.testing.assert_array_equal(confusion, [[0, 1, 0], [0, 1, 0], [0, 0, 1]])
        np.testing.assert_array_equal(rejected, [1, 0, 2])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_predicted_out_of_range(self, bad):
        with pytest.raises(DataError):
            confusion_matrix([1, 2], [1, bad], 3)


class TestEvaluateModel:
    def test_two_disk_report(self):
        train = gen_shapes(TWO_DISKS, 300, seed=0)
        test = gen_shapes(TWO_DISKS, 200, seed=1)
        model = fit(train, degree=4)
        report = evaluate_model(model, test, specs=TWO_DISKS, eps=0.1)
        assert report.n_total == 400
        assert report.accuracy == np.trace(report.confusion) / 400
        assert report.n_eps_interior is not None
        assert report.n_eps_interior < 400
        assert report.eps_interior_accuracy >= report.accuracy - 0.05

    def test_render_keys(self):
        train = gen_shapes(TWO_DISKS, 100, seed=2)
        model = fit(train, degree=2)
        report = evaluate_model(model, train)
        text = render_report(report)
        assert text.startswith("n_test 200\n")
        assert "accuracy " in text
        assert "confusion_1 " in text and "confusion_2 " in text
        assert "runtime" not in text

    def test_too_many_test_labels(self):
        train = gen_shapes(TWO_DISKS, 50, seed=3)
        extra = gen_shapes(
            TWO_DISKS + [ShapeSpec(kind="disk", label=3, center=(0.0, 4.0), radius=1.0)],
            10,
            seed=4,
        )
        model = fit(train, degree=2)
        with pytest.raises(DataError):
            evaluate_model(model, extra)


class TestEvaluateModels:
    def test_matches_per_model_reports(self):
        train = gen_shapes(TWO_DISKS, 60, seed=5)
        test = gen_shapes(TWO_DISKS, 150, seed=6)
        models = fit_degrees(train, [3, 1, 6])
        best = scores_batch(models[1], test.points).max(axis=1)
        models[1].reject_threshold = float(np.median(best))  # rejects half the rows
        interior = epsilon_interior_mask(test.points, TWO_DISKS, 0.2, test.labels)
        for specs, eps, mask in ((TWO_DISKS, 0.2, interior), (None, None, None)):
            reports = masked_reports(models, test, mask)
            assert len(reports) == len(models)
            for model, report in zip(models, reports):
                alone = evaluate_model(model, test, specs=specs, eps=eps)
                assert vars(report).keys() == vars(alone).keys()
                for key, value in vars(alone).items():
                    np.testing.assert_array_equal(getattr(report, key), value, err_msg=key)
        assert reports[1].rejected_per_class.sum() > 0

    def test_interleaved_transforms_match_per_model_reports(self):
        """Models of two fit_degrees calls, interleaved, so that no two
        adjacent models share a transform."""
        test = gen_shapes(TWO_DISKS, 100, seed=6)
        a = fit_degrees(gen_shapes(TWO_DISKS, 40, seed=5), [2, 4])
        b = fit_degrees(gen_shapes(TWO_DISKS, 50, seed=7), [1, 3])
        models = [a[0], b[1], a[1], b[0]]
        mask = epsilon_interior_mask(test.points, TWO_DISKS, 0.2, test.labels)
        reports = masked_reports(models, test, mask)
        assert len(reports) == len(models)
        for model, report in zip(models, reports):
            alone = evaluate_model(model, test, TWO_DISKS, 0.2)
            assert vars(report).keys() == vars(alone).keys()
            for key, value in vars(alone).items():
                np.testing.assert_array_equal(getattr(report, key), value, err_msg=key)

    def test_one_basis_evaluation_per_test_block(self, monkeypatch):
        """The models of one fit_degrees call share their transform, so each
        test row block is evaluated once, in the largest basis."""
        models = fit_degrees(gen_shapes(TWO_DISKS, 200, seed=5), [2, 6, 4, 3])
        test = gen_shapes(TWO_DISKS, EVAL_CHUNK // 2 + 10, seed=6)
        evaluated = []
        real = moments.eval_monomials_batch

        def counted(basis, points, **kwargs):
            evaluated.append((basis.t, len(points)))
            return real(basis, points, **kwargs)

        monkeypatch.setattr(moments, "eval_monomials_batch", counted)
        masked_reports(models, test, None)
        assert evaluated == [(6, EVAL_CHUNK), (6, 20)]
