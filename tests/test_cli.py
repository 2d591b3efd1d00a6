"""End-to-end command-line pipeline tests."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfkit import (
    classifier,
    cli,
    datasets,
    evaluate_model,
    fit,
    gen_shapes,
    load_metadata,
    load_model,
    metrics,
    persist,
    read_csv,
    scores_batch,
)
from cfkit.errors import NumericalError
from conftest import (
    MALFORMED_HEADERS,
    MODEL_CUTS,
    reference_table,
    rewrite_header,
    set_model_float,
)

TWO_DISK_SPEC = """\
# two well separated disks
class=1 kind=disk center=-2,0 radius=1
class=2 kind=disk center=2,0 radius=1
"""

OVERLAP_SPEC = """\
class=1 kind=disk center=-0.5,0 radius=1
class=2 kind=disk center=0.5,0 radius=1
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "disks.spec"
    path.write_text(TWO_DISK_SPEC)
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestSynth:
    def test_writes_rows(self, tmp_path, spec_file):
        out = tmp_path / "data.csv"
        assert run("synth", spec_file, "--n", 500, "--seed", 7, "--out", out) == 0
        data = read_csv(out)
        assert data.n_points == 1000 and data.m == 2

    def test_rerun_identical(self, tmp_path, spec_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("synth", spec_file, "--n", 200, "--seed", 3, "--out", a)
        run("synth", spec_file, "--n", 200, "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_overlapping_disks_allowed(self, tmp_path):
        spec = tmp_path / "overlap.spec"
        spec.write_text(OVERLAP_SPEC)
        out = tmp_path / "data.csv"
        assert run("synth", spec, "--n", 100, "--seed", 1, "--out", out) == 0

    def test_non_ascii_spec(self, tmp_path, capsys):
        spec = tmp_path / "accent.spec"
        spec.write_bytes(TWO_DISK_SPEC.replace("well", "w\u00e9ll").encode("utf-8"))
        assert run("synth", spec, "--n", 10, "--seed", 0, "--out", tmp_path / "x.csv") == 3
        assert f"{spec}: line 1: non-ASCII byte" in capsys.readouterr().err

    def test_malformed_spec_line(self, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("class=1 kind=disk center=0,0\n")  # radius missing
        assert run("synth", spec, "--n", 10, "--seed", 0, "--out", tmp_path / "x.csv") == 3

    @pytest.mark.parametrize("key", ["kind", "class"])
    def test_missing_key_named(self, tmp_path, capsys, key):
        fields = {"class": "class=1", "kind": "kind=disk"}
        del fields[key]
        spec = tmp_path / "bad.spec"
        spec.write_text(" ".join(fields.values()) + " center=0,0 radius=1\n")
        assert run("synth", spec, "--n", 10, "--seed", 0, "--out", tmp_path / "x.csv") == 3
        assert f"{spec}: line 1: missing key '{key}'" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        spec = tmp_path / "twice.spec"
        spec.write_text("class=1 kind=disk center=0,0 radius=1 radius=2\n")
        out = tmp_path / "x.csv"
        assert run("synth", spec, "--n", 10, "--seed", 0, "--out", out) == 3
        assert f"{spec}: line 1: duplicate key 'radius'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "shape",
        [
            "kind=disk center=0,0 radius=nan",
            "kind=disk center=0,0 radius=inf",
            "kind=disk center=0,0 radius=1e308",
            "kind=disk center=nan,0 radius=1",
            "kind=box low=0,0 high=1,inf",
            "kind=box low=-1e308,0 high=1e308,1",
            "kind=annulus center=0,0 inner=1 outer=inf",
        ],
    )
    def test_non_finite_extent(self, tmp_path, capsys, shape):
        spec = tmp_path / "huge.spec"
        spec.write_text(f"class=1 kind=disk center=-2,0 radius=1\nclass=2 {shape}\n")
        out = tmp_path / "x.csv"
        assert run("synth", spec, "--n", 10, "--seed", 0, "--out", out) == 3
        assert f"{spec}: line 2: shape coordinates, radii" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_finite_radius(self, tmp_path):
        spec = tmp_path / "huge.spec"
        spec.write_text("class=1 kind=disk center=0,0 radius=1e200\n")
        out = tmp_path / "x.csv"
        assert run("synth", spec, "--n", 50, "--seed", 0, "--out", out) == 0
        data = read_csv(out)
        assert data.n_points == 50
        assert np.all(np.hypot(*data.points.T) <= 1e200)


class TestTrain:
    def test_full_rank_disks(self, tmp_path, spec_file, capsys):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 500, "--seed", 7, "--out", data)
        model = tmp_path / "model.cfm"
        assert run("train", data, "--degree", 4, "--out", model) == 0
        printed = capsys.readouterr().out
        assert "rank 15/15" in printed
        header = load_metadata(model)
        assert header["degree"] == 4
        assert header["metadata"]["dataset_sha256"]

    def test_degree_auto_heuristic(self, tmp_path, spec_file):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 100, "--seed", 7, "--out", data)
        model = tmp_path / "model.cfm"
        assert run("train", data, "--degree", "auto", "--out", model) == 0
        assert load_metadata(model)["degree"] == 8

    def test_oversized_degree_still_builds(self, tmp_path, spec_file, capsys):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 10, "--seed", 7, "--out", data)
        model = tmp_path / "model.cfm"
        assert run("train", data, "--degree", 5, "--out", model) == 0
        assert "rank-deficient" in capsys.readouterr().out

    def test_rerun_identical_model_bytes(self, tmp_path, spec_file):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 200, "--seed", 5, "--out", data)
        one = tmp_path / "one.cfm"
        two = tmp_path / "two.cfm"
        run("train", data, "--degree", 3, "--seed", 5, "--out", one)
        run("train", data, "--degree", 3, "--seed", 5, "--out", two)
        assert one.read_bytes() == two.read_bytes()

    def test_unreadable_csv(self, tmp_path):
        assert run("train", tmp_path / "missing.csv", "--out", tmp_path / "m.cfm") == 3

    def test_thousand_columns_at_degree_one(self, tmp_path, rng):
        # One monomial per column: the basis has 1001 entries.
        points = rng.normal(size=(40, 1000))
        points[20:] += 3.0
        data = tmp_path / "wide.csv"
        datasets.write_csv(datasets.LabeledDataset(points, [1] * 20 + [2] * 20), data)
        model = tmp_path / "wide.cfm"
        assert run("train", data, "--degree", 1, "--out", model) == 0
        out = tmp_path / "pred.csv"
        assert run("predict", model, data, "--out", out) == 0
        predicted = [line.split(",")[1001] for line in out.read_text().splitlines()[1:]]
        assert predicted == ["1"] * 20 + ["2"] * 20

    def test_box_of_the_whole_float_range(self, tmp_path):
        # hi - lo overflows here; warnings are errors in this suite.
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n-1e308,1\n-9e307,1\n-8e307,1\n8e307,2\n9e307,2\n1e308,2\n")
        model = tmp_path / "m.cfm"
        assert run("train", data, "--degree", 1, "--out", model) == 0
        out = tmp_path / "pred.csv"
        assert run("predict", model, data, "--out", out) == 0
        predicted = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
        assert predicted == ["1"] * 3 + ["2"] * 3

    def test_box_narrower_than_the_smallest_normal_float(self, tmp_path):
        # 1 / half-width overflows here; warnings are errors in this suite.
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n0,1\n1e-310,1\n2e-310,1\n3e-310,2\n4e-310,2\n5e-310,2\n")
        model = tmp_path / "m.cfm"
        assert run("train", data, "--degree", 1, "--out", model) == 0
        assert run("predict", model, data, "--out", tmp_path / "pred.csv") == 0

    def test_overflowing_moment_matrix(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n-1e200,1\n-2e200,1\n-3e200,1\n1e200,2\n2e200,2\n3e200,2\n")
        argv = ("train", data, "--no-scale", "--degree", 2, "--out", tmp_path / "m.cfm")
        assert run(*argv) == 4
        assert "moment matrix is not finite at degree 2" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["inf", "nan"])
    def test_non_finite_label(self, tmp_path, capsys, label):
        data = tmp_path / "data.csv"
        data.write_text(f"x1,label\n0.5,1\n0.25,{label}\n")
        assert run("train", data, "--out", tmp_path / "m.cfm") == 3
        assert f"{data}: line 3: non-finite label" in capsys.readouterr().err

    def test_non_finite_coordinate(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n0.5,1\ninf,2\n")
        assert run("train", data, "--out", tmp_path / "m.cfm") == 3
        assert f"{data}: line 3: non-finite coordinate" in capsys.readouterr().err

    def test_form_feed_in_a_cell_trains(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n0.5,1\n\f0.25,1\n1,2\n1.25,\f2\n")
        assert run("train", data, "--degree", 1, "--out", tmp_path / "m.cfm") == 0

    def test_non_ascii_csv(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"\xef\xbb\xbfx1,label\n0.5,1\n0.25,2\n")
        assert run("train", data, "--out", tmp_path / "m.cfm") == 3
        assert f"{data}: line 1: non-ASCII byte" in capsys.readouterr().err

    def test_bad_policy_flag(self, tmp_path, spec_file):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 50, "--seed", 0, "--out", data)
        code = run(
            "train", data, "--threshold-policy", "nonsense",
            "--out", tmp_path / "m.cfm",
        )
        assert code == 2

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_reject_gamma(self, tmp_path, spec_file, capsys, gamma):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 50, "--seed", 0, "--out", data)
        model = tmp_path / "m.cfm"
        assert run("train", data, f"--reject-gamma={gamma}", "--out", model) == 2
        assert "--reject-gamma must be finite" in capsys.readouterr().err
        assert not model.exists()


class TestPredict:
    @pytest.fixture
    def hand_model(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text(
            "x1,label\n-1.0,1\n0.0,1\n1.0,1\n2.0,2\n3.0,2\n4.0,2\n"
        )
        model = tmp_path / "model.cfm"
        run("train", train, "--degree", 1, "--out", model)
        return model

    def test_hand_queries(self, tmp_path, hand_model):
        queries = tmp_path / "queries.csv"
        queries.write_text("x1\n0.0\n3.0\n1.5\n")
        out = tmp_path / "pred.csv"
        assert run("predict", hand_model, queries, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,predicted,score_1,score_2"
        predicted = [int(line.split(",")[1]) for line in lines[1:]]
        assert predicted == [1, 2, 1]  # midpoint tie goes to class 1
        score_cols = np.array(
            [[float(v) for v in line.split(",")[2:]] for line in lines[1:]]
        )
        assert score_cols[0, 0] == pytest.approx(1.0, rel=1e-9)
        assert score_cols[0, 1] == pytest.approx(1 / 14.5, rel=1e-9)

    def test_label_column_passthrough(self, tmp_path, hand_model):
        queries = tmp_path / "labeled.csv"
        queries.write_text("x1,label\n0.0,1\n")
        out = tmp_path / "pred.csv"
        run("predict", hand_model, queries, "--out", out)
        assert out.read_text().splitlines()[0] == "x1,label,predicted,score_1,score_2"

    def test_dimension_mismatch(self, tmp_path, hand_model):
        queries = tmp_path / "wide.csv"
        queries.write_text("x1,x2\n0.0,1.0\n")
        assert run("predict", hand_model, queries, "--out", tmp_path / "p.csv") == 3

    @pytest.mark.parametrize("cut", MODEL_CUTS.values(), ids=MODEL_CUTS.keys())
    def test_truncated_model(self, tmp_path, hand_model, capsys, cut):
        hand_model.write_bytes(hand_model.read_bytes()[:cut])
        queries = tmp_path / "queries.csv"
        queries.write_text("x1\n0.0\n")
        assert run("predict", hand_model, queries, "--out", tmp_path / "p.csv") == 3
        assert f"{hand_model}: truncated model file" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["format-only", "n-text"])
    def test_malformed_model_header(self, tmp_path, hand_model, capsys, edit):
        rewrite_header(hand_model, MALFORMED_HEADERS[edit])
        queries = tmp_path / "queries.csv"
        queries.write_text("x1\n0.0\n")
        assert run("predict", hand_model, queries, "--out", tmp_path / "p.csv") == 3
        assert f"{hand_model}: malformed model header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            {"n": 5000},
            {"degree": 10**6},
            # Rows of zero columns cost no payload; C(2**40, 2**39) would not finish.
            {"n": 2**39, "degree": 2**39, "eigenvectors_1": [2**40, 0]},
            # A class of rank 0 would let the row count cost no payload either.
            {"n": 5000, "eigenvectors_1": [5001, 0], "eigenvalues_1": [0]},
            {"n": 10**5, "eigenvectors_1": [10**5 + 1, 0], "eigenvalues_1": [0]},
            {"eigenvectors_1": [2, 0], "eigenvalues_1": [0]},
        ],
        ids=["n-5000", "degree-1e6", "n-degree-2e39", "n-5000-rank-0", "n-1e5-rank-0", "rank-0"],
    )
    def test_oversized_header_is_rejected_before_the_basis(
        self, tmp_path, hand_model, capsys, monkeypatch, edit
    ):
        def unreachable(n, t):
            raise AssertionError("enumerate_basis reached")

        def patch(header):
            for entry in header["arrays"]:
                entry["shape"] = edit.get(entry["name"], entry["shape"])
            return {**header, **{k: v for k, v in edit.items() if k in ("n", "degree")}}

        monkeypatch.setattr(persist, "enumerate_basis", unreachable)
        rewrite_header(hand_model, patch)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1\n0.0\n")
        assert run("predict", hand_model, queries, "--out", tmp_path / "p.csv") == 3
        assert f"{hand_model}: malformed model header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, value",
        [
            ("eigenvalues_1", -1.0),
            ("eigenvalues_2", 0.0),
            ("eigenvalues_1", np.nan),
            ("eigenvalues_1", np.inf),
            ("eigenvectors_2", np.nan),
            ("eigenvectors_1", -np.inf),
            ("transform_center", np.nan),
            ("transform_center", np.inf),
            ("transform_scale", np.nan),
            ("transform_scale", np.inf),
            ("transform_scale", 0.0),
            ("train_score_floor", np.nan),
            ("train_score_floor", np.inf),
            ("train_score_floor", -1.0),
        ],
    )
    def test_out_of_range_model_array(self, tmp_path, hand_model, capsys, name, value):
        set_model_float(hand_model, name, value)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1\n0.0\n3.0\n")
        assert run("predict", hand_model, queries, "--out", tmp_path / "p.csv") == 3
        assert f"{hand_model}: malformed model header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            {"mass": 0.0},
            {"mass": -1.0},
            {"mass": float("nan")},
            {"mass": float("inf")},
            {"reject_threshold": float("nan")},
            {"reject_threshold": float("-inf")},
        ],
        ids=lambda edit: "-".join(f"{k}={v}" for k, v in edit.items()),
    )
    def test_out_of_range_header_number(self, tmp_path, hand_model, capsys, edit):
        def patch(header):
            if "mass" in edit:
                header["classes"][0]["mass"] = edit["mass"]
            else:
                header["reject_threshold"] = edit["reject_threshold"]
            return header

        rewrite_header(hand_model, patch)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1\n0.0\n")
        assert run("predict", hand_model, queries, "--out", tmp_path / "p.csv") == 3
        assert f"{hand_model}: malformed model header" in capsys.readouterr().err

    def test_edge_values_load(self, tmp_path, hand_model):
        set_model_float(hand_model, "train_score_floor", 0.0)
        rewrite_header(hand_model, lambda h: {**h, "reject_threshold": -1.0})
        queries = tmp_path / "queries.csv"
        queries.write_text("x1\n0.0\n")
        assert run("predict", hand_model, queries, "--out", tmp_path / "p.csv") == 0

    def test_non_finite_query(self, tmp_path, hand_model, capsys):
        queries = tmp_path / "queries.csv"
        queries.write_text("x1\n0.0\n-inf\n")
        assert run("predict", hand_model, queries, "--out", tmp_path / "p.csv") == 3
        assert f"{queries}: line 3: non-finite coordinate" in capsys.readouterr().err

    def test_non_ascii_query(self, tmp_path, hand_model, capsys):
        queries = tmp_path / "queries.csv"
        queries.write_bytes("x1\n0.0\n\u00bd\n".encode("utf-8"))
        assert run("predict", hand_model, queries, "--out", tmp_path / "p.csv") == 3
        assert f"{queries}: line 3: non-ASCII byte" in capsys.readouterr().err

    def test_output_matches_per_cell_reference(self, tmp_path, spec_file):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 2100, "--seed", 4, "--out", data)
        model = tmp_path / "model.cfm"
        run("train", data, "--degree", 3, "--reject-gamma", 0.05, "--out", model)
        labeled = read_csv(data)
        sc = scores_batch(load_model(model), labeled.points)
        predicted = np.argmax(sc, axis=1) + 1
        predicted[sc.max(axis=1) < 0.05] = 0
        assert 0 < np.count_nonzero(predicted == 0) < predicted.size
        queries = tmp_path / "queries.csv"
        queries.write_text(
            "".join(line.rsplit(",", 1)[0] + "\n" for line in data.read_text().splitlines())
        )
        scores_header = ["predicted", "score_1", "score_2"]
        for source, header, blocks in (
            (data, ["x1", "x2", "label"], [labeled.points, labeled.labels]),
            (queries, ["x1", "x2"], [labeled.points]),
        ):
            out = tmp_path / "pred.csv"
            assert run("predict", model, source, "--out", out) == 0
            expected = reference_table(header + scores_header, *blocks, predicted, sc)
            assert out.read_bytes() == expected

    def test_training_points_score_positive(self, tmp_path, spec_file):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 60, "--seed", 2, "--out", data)
        model = tmp_path / "model.cfm"
        run("train", data, "--degree", 3, "--out", model)
        out = tmp_path / "pred.csv"
        run("predict", model, data, "--out", out)
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        label_col = header.index("label")
        for row in lines[1:]:
            cells = row.split(",")
            label = int(cells[label_col])
            own_score = float(cells[header.index(f"score_{label}")])
            assert own_score > 0

    def test_overflowing_row_is_off_range(self, tmp_path, spec_file):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 200, "--seed", 3, "--out", data)
        model = tmp_path / "model.cfm"
        run("train", data, "--degree", 4, "--out", model)
        rows = ["-2.0,0.0", "2.0,0.5", "0.3,-0.9"]
        with_huge, without = tmp_path / "huge.csv", tmp_path / "plain.csv"
        with_huge.write_text("x1,x2\n" + "\n".join(rows[:2] + ["1e300,0"] + rows[2:]) + "\n")
        without.write_text("x1,x2\n" + "\n".join(rows) + "\n")
        # Warnings are errors in this suite, so an overflow warning fails here.
        assert run("predict", model, with_huge, "--out", tmp_path / "a.csv") == 0
        assert run("predict", model, without, "--out", tmp_path / "b.csv") == 0
        a = (tmp_path / "a.csv").read_text().splitlines()
        b = (tmp_path / "b.csv").read_text().splitlines()
        assert a[3].split(",")[3:] == ["0.0", "0.0"]
        assert a[:3] + a[4:] == b

    def test_finite_query_the_transform_overflows_scores_zero(self, tmp_path):
        # A box 1e-3 wide: the scale is about 2e3, so 1e306 maps past the
        # float range.  Warnings are errors in this suite.
        train = tmp_path / "train.csv"
        train.write_text("x1,label\n0.0,1\n2e-4,1\n4e-4,1\n6e-4,2\n8e-4,2\n1e-3,2\n")
        model = tmp_path / "model.cfm"
        assert run("train", train, "--degree", 1, "--out", model) == 0
        loaded = load_model(model)
        np.testing.assert_array_equal(scores_batch(loaded, [[1e306]]), [[0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite coordinates"):
            scores_batch(loaded, [[np.nan]])
        queries = tmp_path / "queries.csv"
        queries.write_text("x1\n2e-4\n1e306\n")
        out = tmp_path / "pred.csv"
        assert run("predict", model, queries, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[1] == "1"
        assert lines[2].split(",")[2:] == ["0.0", "0.0"]


class TestEval:
    def test_high_accuracy_two_disks(self, tmp_path, spec_file, capsys):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        run("synth", spec_file, "--n", 500, "--seed", 0, "--out", train)
        run("synth", spec_file, "--n", 500, "--seed", 1, "--out", test)
        model = tmp_path / "model.cfm"
        run("train", train, "--degree", 4, "--out", model)
        report_file = tmp_path / "report.txt"
        code = run(
            "eval", model, test, "--shapes", spec_file, "--epsilon", 0.1,
            "--out", report_file,
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "accuracy " in printed and "runtime_seconds" in printed
        text = report_file.read_text()
        accuracy = float(text.splitlines()[1].split()[1])
        assert accuracy >= 0.99
        assert "eps_interior_accuracy" in text
        assert "runtime" not in text  # report file stays reproducible

    def test_empty_test_file(self, tmp_path, spec_file):
        train = tmp_path / "train.csv"
        run("synth", spec_file, "--n", 50, "--seed", 0, "--out", train)
        model = tmp_path / "model.cfm"
        run("train", train, "--degree", 2, "--out", model)
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2,label\n")
        assert run("eval", model, empty) == 3

    @pytest.mark.parametrize("center, dim", [("0", 1), ("0,0,0", 3)])
    def test_shapes_of_another_dimension(self, tmp_path, spec_file, capsys, center, dim):
        train = tmp_path / "train.csv"
        run("synth", spec_file, "--n", 200, "--seed", 0, "--out", train)
        model = tmp_path / "model.cfm"
        run("train", train, "--degree", 2, "--out", model)
        shapes = tmp_path / "shapes.spec"
        shapes.write_text(f"class=1 kind=disk center={center} radius=1\n")
        report = tmp_path / "report.txt"
        assert run("eval", model, train, "--shapes", shapes, "--out", report) == 3
        assert f"shape is {dim}-D but the points are 2-D" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_out_of_range_epsilon(self, tmp_path, monkeypatch, capsys, spec_file, epsilon):
        def no_work(*args, **kwargs):
            raise AssertionError("model loaded before the --epsilon check")

        monkeypatch.setattr(persist, "load_model", no_work)
        code = run(
            "eval", tmp_path / "model.cfm", tmp_path / "test.csv",
            "--shapes", spec_file, "--epsilon", epsilon,
        )
        assert code == 2
        assert "--epsilon must be finite and at least 0" in capsys.readouterr().err


class TestLevelset:
    @pytest.fixture
    def disk_model(self, tmp_path, spec_file):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 400, "--seed", 3, "--out", data)
        model = tmp_path / "model.cfm"
        run("train", data, "--degree", 4, "--out", model)
        return model

    def test_disjoint_disks_no_overlap(self, tmp_path, disk_model, capsys):
        out = tmp_path / "grid.csv"
        code = run(
            "levelset", disk_model, "--bounds=-3.2:3.2,-1.2:1.2",
            "--grid-res", 40, "--out", out,
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "overlap_1_2 0" in printed
        header = out.read_text().splitlines()[0]
        assert header == "x1,x2,lambda_1,lambda_2,member_1,member_2"
        assert len(out.read_text().splitlines()) == 1 + 40 * 40

    def test_gamma_infinite_empties_membership(self, tmp_path, disk_model, capsys):
        out = tmp_path / "grid.csv"
        run(
            "levelset", disk_model, "--bounds=-3:3,-1:1",
            "--grid-res", 10, "--gamma", "1e300", "--out", out,
        )
        printed = capsys.readouterr().out
        assert "levelset_1_cells 0" in printed
        assert "levelset_2_cells 0" in printed

    def test_overlapping_disks_report_overlap(self, tmp_path, capsys):
        spec = tmp_path / "overlap.spec"
        spec.write_text(OVERLAP_SPEC)
        data = tmp_path / "data.csv"
        run("synth", spec, "--n", 400, "--seed", 5, "--out", data)
        model = tmp_path / "model.cfm"
        run("train", data, "--degree", 4, "--out", model)
        capsys.readouterr()
        run(
            "levelset", model, "--bounds=-1.6:1.6,-1.1:1.1",
            "--grid-res", 33, "--out", tmp_path / "grid.csv",
        )
        printed = capsys.readouterr().out
        overlap = int(
            next(l for l in printed.splitlines() if l.startswith("overlap_1_2")).split()[1]
        )
        assert overlap > 0

    def test_normalize_rescales_scores(self, tmp_path, disk_model):
        raw = tmp_path / "raw.csv"
        scaled = tmp_path / "scaled.csv"
        queries = tmp_path / "queries.csv"
        queries.write_text("x1,x2\n-2.0,0.0\n")
        run("predict", disk_model, queries, "--out", raw)
        run("predict", disk_model, queries, "--normalize", "--out", scaled)
        raw_score = float(raw.read_text().splitlines()[1].split(",")[3])
        scaled_score = float(scaled.read_text().splitlines()[1].split(",")[3])
        assert scaled_score == pytest.approx(15.0 * raw_score, rel=1e-12)

    def test_bad_bounds_is_usage_error(self, tmp_path, disk_model):
        assert run(
            "levelset", disk_model, "--bounds=nope",
            "--out", tmp_path / "g.csv",
        ) == 2

    @pytest.mark.parametrize("bounds", ["-inf:inf,-1:1", "-1e308:1e308,-1:1"])
    def test_infinite_bound_width(self, tmp_path, monkeypatch, capsys, disk_model, bounds):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built before the bounds check")

        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "g.csv"
        assert run("levelset", disk_model, f"--bounds={bounds}", "--out", out) == 2
        assert "bad bound" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_cells_are_off_range(self, tmp_path, disk_model, capsys):
        out = tmp_path / "g.csv"
        code = run(
            "levelset", disk_model, "--bounds=-1e307:1e307,-1:1", "--grid-res", 3,
            "--out", out,
        )
        assert code == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        far = np.abs(table[:, 0]) == 1e307
        assert far.sum() == 6
        assert np.all(table[far, 2:] == 0.0)
        np.testing.assert_array_equal(
            table[~far, 2:4], scores_batch(load_model(disk_model), table[~far, :2])
        )
        assert (table[~far, 2:4] > 0).all()

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma(self, tmp_path, capsys, disk_model, gamma):
        out = tmp_path / "g.csv"
        code = run(
            "levelset", disk_model, "--bounds=-3:3,-1:1", "--grid-res", 10,
            "--gamma", gamma, "--out", out,
        )
        assert code == 2
        assert "--gamma must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_resolution_cap(self, tmp_path, disk_model):
        assert run(
            "levelset", disk_model, "--bounds=-1:1,-1:1",
            "--grid-res", 4000, "--out", tmp_path / "g.csv",
        ) == 2

    def test_cell_count_cap(self, tmp_path, monkeypatch, capsys):
        spec = tmp_path / "ball.spec"
        spec.write_text("class=1 kind=disk center=0,0,0 radius=1\n")
        data = tmp_path / "ball.csv"
        run("synth", spec, "--n", 60, "--seed", 1, "--out", data)
        model = tmp_path / "ball.cfm"
        assert run("train", data, "--degree", 2, "--out", model) == 0

        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the size check")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        code = run(
            "levelset", model, "--bounds=-1:1,-1:1,-1:1",
            "--grid-res", 200, "--out", tmp_path / "g.csv",
        )
        assert code == 2
        assert "8000000 cells" in capsys.readouterr().err

    def test_rerun_identical_grid(self, tmp_path, disk_model):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(
                "levelset", disk_model, "--bounds=-3:3,-1:1",
                "--grid-res", 15, "--out", out,
            )
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_factorial_table(self, tmp_path, spec_file):
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", spec_file, "--n-list", "40,80", "--t-list", "2",
            "--seeds", "0,1", "--test-n", 100, "--out", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,t,seed,accuracy,eps_interior_accuracy,runtime_seconds,error"
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[6] == ""  # no cell failures
            assert 0.0 <= float(cells[3]) <= 1.0

    def test_rerun_identical_up_to_runtime(self, tmp_path, spec_file):
        tables = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(
                "sweep", spec_file, "--n-list", "40", "--t-list", "2",
                "--seeds", "3", "--test-n", 80, "--out", out,
            )
            rows = out.read_text().splitlines()
            # drop the runtime column, the only permitted difference
            tables.append([",".join(r.split(",")[:5]) for r in rows])
        assert tables[0] == tables[1]

    def test_matches_per_cell_reference(self, tmp_path, spec_file):
        """Repeated and unsorted entries of every list keep their rows."""
        specs = cli.read_shape_specs(spec_file)
        n_list, t_list, seeds = (40, 90, 40), (4, 2, 4), (3, 1, 3)
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", spec_file, "--n-list", "40,90,40", "--t-list", "4,2,4",
            "--seeds", "3,1,3", "--test-n", 60, "--epsilon", 0.2, "--out", out,
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        expected = []
        for n in n_list:
            for t in t_list:
                for seed in seeds:
                    model = fit(gen_shapes(specs, n, seed), degree=t)
                    test = gen_shapes(specs, 60, seed + 999983)
                    report = evaluate_model(model, test, specs=specs, eps=0.2)
                    expected.append(
                        [str(n), str(t), str(seed), repr(report.accuracy),
                         repr(report.eps_interior_accuracy), ""]
                    )
        assert [row[:5] + row[6:] for row in rows] == expected
        # A (N, seed) group shares one wall time, split evenly over its cells;
        # rows run over n, then t, then seed entries.
        runtimes = {}
        for index, row in enumerate(rows):
            i, rest = divmod(index, len(t_list) * len(seeds))
            runtimes.setdefault((i, rest % len(seeds)), set()).add(row[5])
        assert len(runtimes) == len(n_list) * len(seeds)
        assert all(len(values) == 1 for values in runtimes.values())

    def test_one_mask_per_seed_entry(self, tmp_path, spec_file, monkeypatch):
        calls = []
        real = datasets.epsilon_interior_mask

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(datasets, "epsilon_interior_mask", counting)
        monkeypatch.setattr(metrics, "epsilon_interior_mask", counting)
        code = run(
            "sweep", spec_file, "--n-list", "40,90,40", "--t-list", "4,2",
            "--seeds", "3,1,3", "--test-n", 60, "--out", tmp_path / "sweep.csv",
        )
        assert code == 0
        assert len(calls) == 3

    def test_shared_error_fills_the_group(self, tmp_path):
        spec = tmp_path / "gap.spec"
        spec.write_text(
            "class=1 kind=disk center=-2,0 radius=1\n"
            "class=3 kind=disk center=2,0 radius=1\n"
        )
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", spec, "--n-list", "20", "--t-list", "2,3",
            "--seeds", "0", "--test-n", 20, "--out", out,
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[:3] for row in rows] == [["20", "2", "0"], ["20", "3", "0"]]
        assert all(row[3:5] == ["", ""] and row[6] == "class 2 has no points" for row in rows)

    def test_non_finite_spec_fails_the_run(self, tmp_path, capsys):
        spec = tmp_path / "inf.spec"
        spec.write_text("class=1 kind=disk center=0,0 radius=inf\n")
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", spec, "--n-list", "20", "--t-list", "2",
            "--seeds", "0", "--test-n", 20, "--out", out,
        )
        assert code == 3
        assert f"{spec}: line 1: " in capsys.readouterr().err
        assert not out.exists()

    def test_empty_n_list_usage_error(self, tmp_path, spec_file):
        assert run(
            "sweep", spec_file, "--n-list", "", "--t-list", "2",
            "--seeds", "0", "--out", tmp_path / "s.csv",
        ) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--test-n", "0", "--test-n must be at least 1"),
            ("--n-list", "0,40", "--n-list must be at least 1"),
            ("--t-list", "0", "--t-list must be at least 1"),
            ("--seeds", "0,-1", "--seeds must be at least 0"),
            ("--epsilon", "-1", "--epsilon must be finite and at least 0"),
            ("--epsilon", "nan", "--epsilon must be finite and at least 0"),
            ("--epsilon", "inf", "--epsilon must be finite and at least 0"),
        ],
    )
    def test_out_of_range_flag_fails_the_run(
        self, tmp_path, spec_file, capsys, flag, value, message
    ):
        args = {"--n-list": "40", "--t-list": "2", "--seeds": "0", "--test-n": "80"}
        args[flag] = value
        out = tmp_path / "s.csv"
        argv = [a for pair in args.items() for a in pair]
        assert run("sweep", spec_file, *argv, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def assert_key_number_lines(text):
    """Every report line is a key followed by space-separated floats."""
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key == "wrote":
            continue
        assert value, line
        [float(v) for v in value.split()]


def test_report_lines_parse_as_numbers(tmp_path, spec_file, capsys):
    data = tmp_path / "data.csv"
    model = tmp_path / "model.cfm"
    run("synth", spec_file, "--n", 200, "--seed", 7, "--out", data)
    run("train", data, "--degree", 3, "--out", model)
    capsys.readouterr()
    assert run("eval", model, data, "--shapes", spec_file) == 0
    eval_out = capsys.readouterr().out
    assert "class_2_accuracy " in eval_out
    assert_key_number_lines(eval_out)
    grid = tmp_path / "grid.csv"
    code = run("levelset", model, "--bounds=-3:3,-1:1", "--grid-res", 8, "--out", grid)
    assert code == 0
    levelset_out = capsys.readouterr().out
    assert "gamma_1 " in levelset_out
    assert_key_number_lines(levelset_out)


# sha256 of every file written by the pipeline in test_pinned_output_bytes.
# A change that moves any of them changes the bytes cfkit writes.
PINNED_DIGESTS = {
    "train.csv": "4c364c89478918a02876d99a381e055dc743e83d06f54ece84cb9ccacc6e9a63",
    "test.csv": "a465941655e1a9b2e8c388acc4c7625f2539f099b599bcb2b0a665d318c5a31e",
    "model.cfm": "5662385df4e88ecc3f2b3faaf1e5bd5061337c3de744379c12ea0617af39d6d0",
    "predict.csv": "2e8c6522bc436870c3bd7d4a087c25b86f5eec252097249a6012fa1a3d7eb03f",
    "report.txt": "592a28f065031777256c150b67cf69ab711d7255e7064d088dcb09c5b2f63a6b",
    "grid.csv": "d2c4f60caad142f90e4a786d54fb178b0aab16dcf3ad09f25e55c5901092cf67",
}


def test_pinned_output_bytes(tmp_path, spec_file):
    """synth, train, predict, eval and levelset write the recorded bytes.

    The model and score digests hold for the LAPACK and BLAS results of
    numpy 2.4 with OpenBLAS 0.3 on x86-64; the two synth CSVs depend only
    on numpy's PCG64 stream and ``repr``.
    """
    out = {name: tmp_path / name for name in PINNED_DIGESTS}
    for argv in (
        ("synth", spec_file, "--n", 150, "--seed", 11, "--out", out["train.csv"]),
        ("synth", spec_file, "--n", 100, "--seed", 12, "--out", out["test.csv"]),
        ("train", out["train.csv"], "--degree", 4, "--out", out["model.cfm"]),
        ("predict", out["model.cfm"], out["test.csv"], "--out", out["predict.csv"]),
        ("eval", out["model.cfm"], out["test.csv"], "--shapes", spec_file,
         "--out", out["report.txt"]),
        ("levelset", out["model.cfm"], "--bounds=-3.2:3.2,-1.2:1.2",
         "--grid-res", 40, "--out", out["grid.csv"]),
    ):
        assert run(*argv) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}
    assert digests == PINNED_DIGESTS


def run_with_blas_threads(threads, *argv):
    """Run the CLI in a fresh interpreter, because OpenBLAS reads its thread
    count at load time."""
    src = str(Path(cli.__file__).parents[1])
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    subprocess.run(
        [sys.executable, "-c", "import sys; from cfkit.cli import main; sys.exit(main())",
         *map(str, argv)],
        env=env, check=True, capture_output=True,
    )


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path, spec_file):
    """``train`` writes the same model bytes with one BLAS thread and with two.

    A Gram summed by a general matrix product differs in its last bits
    between the two at this size and degree (50 or 200 points per class do
    not show it).  On a machine with one CPU, OpenBLAS runs one thread
    either way, so there the test cannot fail.
    """
    data = tmp_path / "train.csv"
    assert run("synth", spec_file, "--n", 500, "--seed", 1, "--out", data) == 0
    models = []
    for threads in ("1", "2"):
        model = tmp_path / f"model-{threads}.cfm"
        run_with_blas_threads(threads, "train", data, "--degree", 8, "--out", model)
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_scores_do_not_depend_on_blas_threads(tmp_path, spec_file):
    """``predict`` and ``levelset`` write the same bytes with one BLAS thread
    and with two.  With 2500 points per class the queries fill a 4096-row
    block, large enough for OpenBLAS to split the scoring product."""
    data, model = tmp_path / "train.csv", tmp_path / "model.cfm"
    assert run("synth", spec_file, "--n", 2500, "--seed", 1, "--out", data) == 0
    assert run("train", data, "--degree", 8, "--out", model) == 0
    outputs = []
    for threads in ("1", "2"):
        predicted, grid = tmp_path / f"predict-{threads}.csv", tmp_path / f"grid-{threads}.csv"
        run_with_blas_threads(threads, "predict", model, data, "--out", predicted)
        run_with_blas_threads(threads, "levelset", model, "--bounds=-3.2:3.2,-1.2:1.2",
                              "--grid-res", 70, "--out", grid)
        outputs.append((predicted.read_bytes(), grid.read_bytes()))
    assert outputs[0] == outputs[1]


# Every flag value the parser rejects: (subcommand and its positional
# arguments, the bad flag and value).  The positional paths do not exist.
BAD_FLAGS = [
    (["synth", "missing.spec"], ["--n", "0"]),
    (["synth", "missing.spec"], ["--n", "abc"]),
    (["synth", "missing.spec"], ["--seed", "-1"]),
    (["train", "missing.csv"], ["--degree", "0"]),
    (["train", "missing.csv"], ["--degree", "abc"]),
    (["train", "missing.csv"], ["--threshold-policy", "foo"]),
    (["train", "missing.csv"], ["--threshold-policy", "rel:nan"]),
    (["train", "missing.csv"], ["--threshold-policy", "tikhonov:inf"]),
    (["train", "missing.csv"], ["--threshold-policy", "rel:-1"]),
    (["train", "missing.csv"], ["--reject-gamma", "nan"]),
    (["train", "missing.csv"], ["--seed", "abc"]),
    (["train", "missing.csv"], ["--seed", "-3"]),
    (["eval", "missing.cfm", "missing.csv"], ["--epsilon", "nan"]),
    (["eval", "missing.cfm", "missing.csv"], ["--epsilon", "-1"]),
    (["levelset", "missing.cfm"], ["--grid-res", "1"]),
    (["levelset", "missing.cfm"], ["--grid-res", "2001"]),
    (["levelset", "missing.cfm"], ["--gamma", "nan"]),
    (["levelset", "missing.cfm"], ["--gamma", "abc"]),
    (["levelset", "missing.cfm"], ["--bounds=1:-1,-1:1"]),
    (["levelset", "missing.cfm"], ["--bounds=-1:1,nope"]),
    (["sweep", "missing.spec"], ["--n-list", "0"]),
    (["sweep", "missing.spec"], ["--n-list", ","]),
    (["sweep", "missing.spec"], ["--t-list", "2,0"]),
    (["sweep", "missing.spec"], ["--seeds", "0,-1"]),
    (["sweep", "missing.spec"], ["--test-n", "0"]),
    (["sweep", "missing.spec"], ["--epsilon", "inf"]),
]
# Valid values of the flags each subcommand requires; a bad value given after
# one of them is still converted, and rejected, by the parser.
REQUIRED_FLAGS = {
    "synth": ["--n", "5"],
    "levelset": ["--bounds=-1:1,-1:1"],
    "sweep": ["--n-list", "20", "--t-list", "2", "--seeds", "0"],
}


@pytest.mark.parametrize(
    "command, bad", BAD_FLAGS, ids=[f"{c[0]} {' '.join(b)}" for c, b in BAD_FLAGS]
)
def test_bad_flag_exits_two_before_any_input_is_read(
    tmp_path, monkeypatch, capsys, command, bad
):
    def no_input(*args, **kwargs):
        raise AssertionError("an input file was read before the flags were checked")

    monkeypatch.setattr(datasets, "read_ascii_lines", no_input)
    monkeypatch.setattr(persist, "load_model", no_input)
    monkeypatch.chdir(tmp_path)
    required = REQUIRED_FLAGS.get(command[0], [])
    assert run(*command, *required, *bad, "--out", "out.file") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad[0].partition("=")[0] in err
    assert list(tmp_path.iterdir()) == []


# Each subcommand with one input file that does not exist; the others exist.
MISSING_INPUTS = [
    ["synth", "missing.spec", "--n", "5"],
    ["train", "missing.csv"],
    ["predict", "missing.cfm", "data.csv"],
    ["predict", "model.cfm", "missing.csv"],
    ["eval", "missing.cfm", "data.csv"],
    ["eval", "model.cfm", "missing.csv"],
    ["eval", "model.cfm", "data.csv", "--shapes", "missing.spec"],
    ["levelset", "missing.cfm", "--bounds=-1:1,-1:1"],
    ["sweep", "missing.spec", "--n-list", "20", "--t-list", "2", "--seeds", "0"],
]


@pytest.mark.parametrize("argv", MISSING_INPUTS, ids=" ".join)
def test_missing_input_is_named_with_its_strerror(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "disks.spec").write_text(TWO_DISK_SPEC)
    assert run("synth", "disks.spec", "--n", 20, "--seed", 1, "--out", "data.csv") == 0
    assert run("train", "data.csv", "--degree", 2, "--out", "model.cfm") == 0
    capsys.readouterr()
    assert run(*argv, "--out", "out.file") == 3
    (missing,) = [a for a in argv if a.startswith("missing")]
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
    assert not (tmp_path / "out.file").exists()


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_numerical_failure_maps_to_four(self, monkeypatch, tmp_path, spec_file):
        data = tmp_path / "data.csv"
        run("synth", spec_file, "--n", 30, "--seed", 0, "--out", data)

        def explode(args):
            raise NumericalError("synthetic failure")

        # build_parser resolves command handlers through the module globals
        monkeypatch.setattr(cli, "cmd_train", explode)
        assert cli.main(["train", str(data), "--out", str(tmp_path / "m.cfm")]) == 4
        monkeypatch.undo()

        # LinAlgError subclasses ValueError, which on its own exits 3.
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(classifier, "fit", no_convergence)
        assert cli.main(["train", str(data), "--out", str(tmp_path / "m.cfm")]) == 4
