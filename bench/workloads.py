"""One benchmark workload, run in a fresh interpreter by ``run.py``.

Usage (normally started by run.py, which sets the BLAS thread count and
PYTHONPATH first)::

    python3 bench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --size full|tiny --work DIR --out RESULT.json [--probe]

The process imports numpy and cfkit, builds the workload's inputs from
the seed, and records the monotonic time at which it was ready; run.py
turns that into ``setup_s``.  With ``--probe`` it stops there.  Otherwise
it repeats passes over the workload until ``--seconds`` are used, checks
the outputs, and writes the raw figures to ``--out``.

With ``--trace 1`` passes alternate between untraced and traced (see
tracer.py), so one run gives per-layer self times, the untraced step
timings and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import cfkit
from cfkit import classifier, cli, datasets, persist

from tracer import LAYERS, Tracer

TWO_DISKS = """\
class=1 kind=disk center=-2,0 radius=1
class=2 kind=disk center=2,0 radius=1
"""

THREE_SHAPES = [
    datasets.ShapeSpec(kind="disk", label=1, center=(-3.0, 0.0), radius=1.0),
    datasets.ShapeSpec(kind="annulus", label=2, center=(0.0, 0.0), inner=0.5, outer=1.0),
    datasets.ShapeSpec(kind="box", label=3, low=(2.0, -1.0), high=(4.0, 1.0)),
]

# Per-workload sizes.  "full" is what the benchmark measures: the CLI and
# high-degree inputs are 1/8 of the 100k-points-per-class, 700x700-grid
# baseline, so one 30 s run holds 15-20 passes and its median pass time
# averages over the drift in machine speed.  "tiny" only exercises every
# path, for the benchmark's own tests.
SIZES = {
    "full": {
        "cli-pipeline": {"n": 12500, "grid": 250},
        "highdeg-3class": {"n": 12500, "degrees": (8, 12)},
        "sweep-small": {"n_list": "50,200,2000", "t_list": "2,4,6,8", "seeds": 10,
                        "test_n": 1000},
    },
    "tiny": {
        "cli-pipeline": {"n": 300, "grid": 20},
        "highdeg-3class": {"n": 300, "degrees": (8, 12)},
        "sweep-small": {"n_list": "50,200", "t_list": "2,6", "seeds": 2, "test_n": 200},
    },
}


clock = time.perf_counter


def sha256_file(path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_cli(argv) -> tuple[bool, str]:
    """Run ``cfkit.cli.main`` in-process; (succeeded, captured stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        return False, out.getvalue()
    if code != 0:
        print(f"cfkit {argv[0]} exited with {code}", file=sys.stderr)
    return code == 0, out.getvalue()


def count_unparsed_lines(text) -> int:
    """Lines of a key-value report whose values do not parse as numbers."""
    bad = 0
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if not value or key == "wrote":
            continue
        try:
            [float(v) for v in value.split()]
        except ValueError:
            bad += 1
    return bad


def report_value(text, key) -> float | None:
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        if name == key:
            try:
                return float(value)
            except ValueError:
                return None
    return None


def own_zero_frac(model, data) -> float:
    """Largest share of a class's own training points that scores exactly 0."""
    worst = 0.0
    for j in range(1, model.m + 1):
        own = data.points[data.labels == j]
        column = classifier.scores_batch(model, own)[:, j - 1]
        worst = max(worst, float(np.mean(column == 0.0)))
    return worst


def bad_scores(values) -> bool:
    return bool(np.any(np.isnan(values)) or np.any(values < 0))


class Outcome:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.problems.append(what)
        return ok


class CliPipeline:
    """synth, train, predict, eval and levelset through ``cli.main``."""

    def __init__(self, work, size, seed):
        (work / "disks.spec").write_text(TWO_DISKS)
        self.files = {k: str(work / v) for k, v in (
            ("spec", "disks.spec"), ("train", "train.csv"), ("test", "test.csv"),
            ("model", "model.cfm"), ("predict", "predict.csv"), ("grid", "grid.csv"))}
        f, n, grid = self.files, str(size["n"]), str(size["grid"])
        self.steps = [
            ("synth", ["synth", f["spec"], "--n", n, "--seed", str(2 * seed + 1),
                       "--out", f["train"]]),
            ("synth", ["synth", f["spec"], "--n", n, "--seed", str(2 * seed + 2),
                       "--out", f["test"]]),
            ("train", ["train", f["train"], "--degree", "4", "--out", f["model"]]),
            ("predict", ["predict", f["model"], f["test"], "--out", f["predict"]]),
            ("eval", ["eval", f["model"], f["test"], "--shapes", f["spec"]]),
            ("levelset", ["levelset", f["model"], "--bounds=-3.2:3.2,-1.2:1.2",
                          "--grid-res", grid, "--out", f["grid"]]),
        ]
        self.rows = 2 * size["n"]
        self.cells = size["grid"] ** 2
        self.stdout = {}

    def run_pass(self, outcome):
        times = dict.fromkeys(("synth", "train", "predict", "eval", "levelset"), 0.0)
        for step, argv in self.steps:
            started = clock()
            ok, text = run_cli(argv)
            times[step] += clock() - started
            outcome.check(ok, f"cfkit {step} failed")
            self.stdout[step] = text
        return times

    def after_pass(self, outcome):
        """Per-pass digests and report figures, taken outside the timing."""
        accuracy = report_value(self.stdout["eval"], "accuracy")
        outcome.check(accuracy is not None, "eval report has no accuracy line")
        f = self.files
        digests = {k: sha256_file(f[k]) for k in ("model", "predict", "grid")}
        return digests, {"accuracy": accuracy or 0.0}

    def final_checks(self, outcome):
        f = self.files
        test = np.loadtxt(f["test"], delimiter=",", skiprows=1, ndmin=2)
        train = np.loadtxt(f["train"], delimiter=",", skiprows=1, ndmin=2)
        pred = np.loadtxt(f["predict"], delimiter=",", skiprows=1, ndmin=2)
        model = persist.load_model(f["model"])
        expected = classifier.classify_batch(model, test[:, :2])
        outcome.check(
            pred.shape == (self.rows, 6)
            and np.array_equal(pred[:, :3], test)
            and np.array_equal(pred[:, 3], expected),
            "predict labels differ from classify_batch on the same rows",
        )
        outcome.check(not bad_scores(pred[:, 4:]), "predict score NaN or negative")
        grid = np.loadtxt(f["grid"], delimiter=",", skiprows=1, ndmin=2)
        outcome.check(
            grid.shape == (self.cells, 6)
            and not bad_scores(grid[:, 2:4])
            and np.all((grid[:, 4:] == 0) | (grid[:, 4:] == 1)),
            "levelset output malformed or has NaN/negative scores",
        )
        data = cfkit.LabeledDataset(train[:, :2], train[:, 2].astype(np.int64))
        unparsed = count_unparsed_lines(self.stdout["eval"])
        unparsed += count_unparsed_lines(self.stdout["levelset"])
        return {"own_zero_frac": own_zero_frac(model, data),
                "report_unparsed_lines": unparsed}

    def step_metrics(self, times):
        return {
            "synth_s": times["synth"],
            "train_s": times["train"],
            "predict_rows_per_s": self.rows / times["predict"],
            "eval_s": times["eval"],
            "levelset_cells_per_s": self.cells / times["levelset"],
        }


class HighDegree:
    """In-memory fit and scoring of three shapes at high degree."""

    def __init__(self, work, size, seed):
        self.degrees = size["degrees"]
        self.train = datasets.gen_shapes(THREE_SHAPES, size["n"], 2 * seed + 1)
        self.test = datasets.gen_shapes(THREE_SHAPES, size["n"], 2 * seed + 2)
        self.models = {}
        self.scores = {}

    def run_pass(self, outcome):
        times = {"fit": 0.0, "score": 0.0}
        self.models.clear()
        self.scores.clear()
        for t in self.degrees:
            started = clock()
            try:
                self.models[t] = classifier.fit(self.train, degree=t)
            except Exception:
                traceback.print_exc()
            times["fit"] += clock() - started
            if not outcome.check(t in self.models, f"fit at t={t} raised"):
                continue
            started = clock()
            try:
                self.scores[t] = classifier.scores_batch(self.models[t], self.test.points)
            except Exception:
                traceback.print_exc()
            times["score"] += clock() - started
            outcome.check(t in self.scores, f"scores_batch at t={t} raised")
        return times

    def after_pass(self, outcome):
        digests, hits, rows = {}, 0, 0
        for t, sc in self.scores.items():
            outcome.check(not bad_scores(sc), f"t={t} score NaN or negative")
            digests[f"scores_t{t}"] = hashlib.sha256(sc.tobytes()).hexdigest()
            hits += int(np.sum(np.argmax(sc, axis=1) + 1 == self.test.labels))
            rows += sc.shape[0]
        return digests, {"accuracy": hits / max(rows, 1)}

    def final_checks(self, outcome):
        worst = max((own_zero_frac(m, self.train) for m in self.models.values()),
                    default=0.0)
        return {"own_zero_frac": worst, "report_unparsed_lines": 0}

    def step_metrics(self, times):
        rows = self.test.n_points * len(self.degrees)
        rate = rows / times["score"] if times["score"] else 0.0
        return {"train_s": times["fit"], "score_rows_per_s": rate}


class SweepSmall:
    """One ``cfkit sweep`` over many tiny (N, t, seed) cells."""

    def __init__(self, work, size, seed):
        self.size = size
        self.spec = work / "disks.spec"
        self.spec.write_text(TWO_DISKS)
        self.out = work / "sweep.csv"
        self.seeds = [size["seeds"] * seed + k for k in range(size["seeds"])]
        self.argv = [
            "sweep", str(self.spec), "--n-list", size["n_list"],
            "--t-list", size["t_list"], "--seeds", ",".join(map(str, self.seeds)),
            "--test-n", str(size["test_n"]), "--out", str(self.out),
        ]
        self.cells = (len(size["n_list"].split(",")) * len(size["t_list"].split(","))
                      * len(self.seeds))

    def run_pass(self, outcome):
        started = clock()
        ok, _ = run_cli(self.argv)
        elapsed = clock() - started
        outcome.check(ok, "cfkit sweep failed")
        return {"sweep": elapsed}

    def after_pass(self, outcome):
        with open(self.out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        outcome.check(len(rows) == self.cells, "sweep table has the wrong row count")
        accuracies = []
        for row in rows:
            if outcome.check(not row["error"], f"sweep cell error: {row['error']}"):
                accuracies.append(float(row["accuracy"]))
        kept = [[v for k, v in row.items() if k != "runtime_seconds"] for row in rows]
        digest = hashlib.sha256(json.dumps(kept).encode()).hexdigest()
        accuracy = statistics.fmean(accuracies) if accuracies else 0.0
        return {"sweep": digest}, {"accuracy": accuracy}

    def final_checks(self, outcome):
        specs = cli.read_shape_specs(self.spec)
        worst = 0.0
        for n_train in map(int, self.size["n_list"].split(",")):
            for t in map(int, self.size["t_list"].split(",")):
                for seed in self.seeds:
                    train = datasets.gen_shapes(specs, n_train, seed)
                    model = classifier.fit(train, degree=t)
                    worst = max(worst, own_zero_frac(model, train))
        return {"own_zero_frac": worst, "report_unparsed_lines": 0}

    def step_metrics(self, times):
        return {"sweep_cells_per_s": self.cells / times["sweep"]}


WORKLOADS = {
    "cli-pipeline": CliPipeline,
    "highdeg-3class": HighDegree,
    "sweep-small": SweepSmall,
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
    }


def median_steps(step_times, workload):
    """Step metrics from the per-step median over passes."""
    keys = step_times[0].keys()
    medians = {k: statistics.median(t[k] for t in step_times) for k in keys}
    return workload.step_metrics(medians)


def measure(workload, seconds, trace):
    """Run passes until ``seconds`` are used; return the raw figures.

    The first pass pays one-off costs (lazy imports, first BLAS calls, a
    cold file cache); it is checked but its time is not kept.
    """
    outcome = Outcome()
    walls = {False: [], True: []}
    step_times, digests, figures = [], [], []
    tracer = Tracer()
    began = clock()
    for index in itertools.count():
        traced = bool(trace) and index > 0 and len(walls[False]) > len(walls[True])
        gc.collect()
        started = clock()
        with tracer if traced else contextlib.nullcontext():
            times = workload.run_pass(outcome)
        wall = clock() - started
        pass_digests, pass_figures = workload.after_pass(outcome)
        digests.append(pass_digests)
        figures.append(pass_figures)
        if index == 0:
            continue
        walls[traced].append(wall)
        if not traced:
            step_times.append(times)
        enough = walls[False] and (walls[True] or not trace)
        if enough and clock() - began + wall > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome.check(all(d == digests[0] for d in digests),
                  "outputs differ between passes of the same run")
    try:
        final = workload.final_checks(outcome)
    except Exception:
        traceback.print_exc()
        outcome.check(False, "output checks raised")
        # Worst-case readings: the run is already marked incorrect.
        final = {"own_zero_frac": 1.0, "report_unparsed_lines": 0}
    result = {
        "passes": len(digests),
        "pass_walls": walls,
        "digests": digests[0],
        "steps": median_steps(step_times, workload),
        "end_to_end": {
            "pass_s": statistics.median(walls[False]),
            "accuracy": figures[0]["accuracy"],
            "peak_rss_mb": peak_rss_mb,
        },
        "outcome": {"attempted": outcome.attempted, "problems": outcome.problems},
        **final,
    }
    if trace:
        result["layers"] = layer_figures(tracer, walls)
        result["spans"] = tracer.spans
    return result


def layer_figures(tracer, walls):
    """Per traced pass: self time and calls per layer, counts, overhead."""
    passes = len(walls[True])
    self_s, calls = tracer.self_times()
    wall = sum(walls[True])
    out = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = self_s[name] / passes
        out[f"{name}.calls"] = calls[name] / passes
    counts = {k: v / passes for k, v in tracer.counts.items()}
    rows = counts.pop("classifier.rows_scored")
    scored = counts.pop("classifier.basis_rows_scored")
    out["classifier.basis_evals_per_scored_row"] = scored / rows if rows else 0.0
    out.update(counts)
    out["trace.wall_s"] = wall / passes
    out["trace.untraced_s"] = (wall - tracer.covered_s()) / passes
    out["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--work", required=True, help="directory for workload files")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(cfkit.__file__).resolve().is_relative_to(src):
        sys.exit(f"cfkit was imported from {cfkit.__file__}, not from {src}")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](work, SIZES[args.size][args.workload], args.seed)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if not args.probe:
        result["env"] = environment()
        result.update(measure(workload, args.seconds, args.trace))
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
