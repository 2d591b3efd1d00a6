"""cfkit benchmark: one workload per call, metrics as JSON on the last line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``cli-pipeline``: synth, train, predict, eval and levelset through
  ``cfkit.cli.main`` on two disks; mostly CSV and text I/O.
* ``highdeg-3class``: in-memory ``fit`` and ``scores_batch`` on three
  shapes at degrees 8 and 12; mostly basis evaluation and scoring.
* ``sweep-small``: one ``cfkit sweep`` of 120 tiny cells; fixed cost
  per call.

Each workload runs in a fresh interpreter (``workloads.py``) with the
BLAS and OpenMP thread count pinned to ``BLAS_THREADS`` and cfkit
imported from ``src/`` of this checkout.  The interpreter is started
``SETUP_SAMPLES`` times; ``setup_s`` is the median time from spawn to
ready (interpreter start, imports, inputs).  The last start goes on to
measure passes for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a run whose passes alternate untraced and traced.
Every metric is reported on every workload; a layer or step a workload
does not use reads 0.  Per-layer figures are means per traced pass.
Three of them are computed from argument shapes, not measured:
``multiindex.values_computed`` (rows x basis size),
``christoffel.gemm_gflop`` (2 x rows x basis size x rank per product) and
``classifier.basis_evals_per_scored_row``; the byte counts are sizes of
the files read or written.  The full record (environment, pass times,
output digests, failures, spans) goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
WORKLOADS = ("cli-pipeline", "highdeg-3class", "sweep-small")

# One BLAS thread: on a shared 2-core machine the default threading
# spreads run-to-run timings about twice as wide and is slower.
BLAS_THREADS = 1
SETUP_SAMPLES = 5
DEADLINE_S = 170

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "accuracy": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

STEPS = {
    "step.synth_s": ("s", "lower"),
    "step.train_s": ("s", "lower"),
    "step.predict_rows_per_s": ("rows/s", "higher"),
    "step.eval_s": ("s", "lower"),
    "step.levelset_cells_per_s": ("cells/s", "higher"),
    "step.score_rows_per_s": ("rows/s", "higher"),
    "step.sweep_cells_per_s": ("cells/s", "higher"),
}

PER_LAYER = {
    **{f"{name}.self_s": ("s", "lower") for name in LAYERS},
    **{f"{name}.calls": ("count", "lower") for name in LAYERS},
    "multiindex.values_computed": ("count", "lower"),
    "christoffel.gemm_gflop": ("GFLOP", "lower"),
    "classifier.basis_evals_per_scored_row": ("rows/row", "lower"),
    "datasets.csv_bytes_written": ("bytes", "lower"),
    "datasets.csv_bytes_read": ("bytes", "lower"),
    "persist.model_bytes": ("bytes", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "classifier.own_zero_frac": ("fraction", "lower"),
    "cli.report_unparsed_lines": ("count", "lower"),
    **STEPS,
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def spawn(args, result_path, deadline, probe):
    """Run workloads.py once; return its result and the spawn-to-ready time."""
    argv = [
        sys.executable, str(ROOT / "bench" / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--work", str(WORK / args.workload),
        "--out", str(result_path),
    ] + (["--probe"] if probe else [])
    result_path.unlink(missing_ok=True)
    spawned = monotonic()
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        sys.exit(f"workload process exited with {code}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - spawned


def collect(args):
    deadline = monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    result_path = WORK / f"{args.workload}.result.json"
    setups = []
    for probe in [True] * (SETUP_SAMPLES - 1) + [False]:
        result, setup = spawn(args, result_path, deadline, probe)
        setups.append(setup)
    result["setup_samples"] = setups
    return result, statistics.median(setups)


def metric_values(result, setup_s, trace):
    if not trace:
        return {"setup_s": setup_s, **result["end_to_end"]}, END_TO_END
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(result["layers"])
    values["classifier.own_zero_frac"] = result["own_zero_frac"]
    values["cli.report_unparsed_lines"] = result["report_unparsed_lines"]
    values.update({f"step.{k}": v for k, v in result["steps"].items()})
    return values, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description="cfkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny only exercises every path, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cfkit" / "__init__.py").is_file():
        sys.exit(f"no cfkit sources under {ROOT / 'src'}")

    result, setup_s = collect(args)
    values, table = metric_values(result, setup_s, args.trace)
    missing = set(table) - set(values)
    if missing:
        sys.exit(f"workload did not report {sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": table[k][0]} for k in table}
    problems = result["outcome"]["problems"]

    record = {k: v for k, v in result.items() if k != "spans"}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    if "spans" in result:
        (WORK / f"{stem}.spans.json").write_text(json.dumps(result["spans"]))

    print("environment", json.dumps(result["env"]))
    print("digests", json.dumps(result["digests"]))
    print(f"passes {result['passes']}")
    for problem in problems:
        print("FAILED", problem)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["outcome"]["attempted"],
        "failed": len(problems),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
