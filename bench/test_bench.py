"""Self-test of the benchmark: tiny runs of every workload through run.py.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric_without_failures(workload):
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result = result_of(bench(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {name: unit for name, (unit, _) in table.items()}

    values = {name: m["value"] for name, m in result["metrics"].items()}
    self_total = sum(v for name, v in values.items() if name.endswith(".self_s"))
    assert self_total + values["trace.untraced_s"] == pytest.approx(
        values["trace.wall_s"], rel=1e-9, abs=1e-12
    )
    if workload == "highdeg-3class":
        io_layers = [n for n in values if n.startswith(("datasets.", "cli.")) and
                     n.endswith((".calls", "bytes", "bytes_read", "bytes_written"))
                     and not n.startswith("datasets.gen_shapes")]
        assert all(values[n] == 0 for n in io_layers)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep-small", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_rebinds_every_imported_name_and_restores_it():
    from cfkit import christoffel, classifier, datasets, moments, multiindex

    import cfkit

    original = multiindex.eval_monomials_batch
    data = datasets.gen_shapes(
        [datasets.ShapeSpec(kind="disk", label=1, center=(0.0, 0.0), radius=1.0)],
        50, 0,
    )
    with Tracer() as tracer:
        wrapped = multiindex.eval_monomials_batch
        assert wrapped is not original
        for module in (moments, christoffel, cfkit):
            assert module.eval_monomials_batch is wrapped
        classifier.fit(data, degree=2)
    for module in (multiindex, moments, christoffel, cfkit):
        assert module.eval_monomials_batch is original

    names = [span[0] for span in tracer.spans]
    parents = {names[span[3]] for span in tracer.spans
               if span[0] == "multiindex.eval_monomials_batch"}
    assert parents == {"moments.empirical_moment_matrix", "christoffel.eval_cf_batch"}
    assert tracer.counts["multiindex.values_computed"] == 2 * 50 * 6
