"""End-to-end command-line pipeline tests."""

import hashlib

import numpy as np
import pytest

from cfkit import cli, load_metadata, load_model, read_csv, scores_batch
from cfkit.errors import NumericalError
from conftest import MALFORMED_HEADERS, MODEL_CUTS, reference_table, rewrite_header

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
    "model.cfm": "84d5b7f619339e6b4eb437da0487d0a254a40513ae8de943bba76efd98906055",
    "predict.csv": "818390c3d277c96976d2c3fa81162fb4ae3733b24c826582bdfb4a9f7760e6a4",
    "report.txt": "592a28f065031777256c150b67cf69ab711d7255e7064d088dcb09c5b2f63a6b",
    "grid.csv": "201a7f2b9d7521945a9f8fd1aa9a1b5d84cef1f6cc234df00f7511beec4127c0",
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
