"""Outside-in span tracer for cfkit's public functions.

Each function named in ``LAYERS`` is wrapped, and the wrapper is bound in
place of the original in every loaded ``cfkit`` module that holds it
under any name.  That covers calls through ``from .multiindex import
eval_monomials_batch`` (in ``moments`` and ``christoffel``), calls through
module attributes such as ``classifier.fit`` in ``cli``, and the
``cli.cmd_*`` handlers, which ``build_parser`` looks up on every
``main`` call.  Nothing inside ``src/`` changes.

A span is ``[name, start, end, parent index]``; spans are kept in memory
and written out by the caller.  A span's self time is its duration minus
the durations of its direct children, so the self times of all spans add
up to the time covered by the root spans.

Counts are computed from argument shapes and file sizes at the same
boundaries, not measured inside the program.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# Traced functions, as "<module>.<function>" inside the cfkit package.
LAYERS = (
    "multiindex.enumerate_basis",
    "multiindex.eval_monomials_batch",
    "moments.class_split",
    "moments.empirical_moment_matrix",
    "christoffel.build_evaluator",
    "christoffel.eval_cf_batch",
    "classifier.fit",
    "classifier.scores_batch",
    "datasets.gen_shapes",
    "datasets.write_csv",
    "datasets.read_csv",
    "datasets.read_points_csv",
    "metrics.confusion_matrix",
    "metrics.evaluate_model",
    "persist.save_model",
    "persist.load_model",
    "cli.cmd_synth",
    "cli.cmd_train",
    "cli.cmd_predict",
    "cli.cmd_eval",
    "cli.cmd_levelset",
    "cli.cmd_sweep",
)

# Counters filled by the hooks below, summed over all traced calls.
COUNTERS = (
    "multiindex.values_computed",
    "christoffel.gemm_gflop",
    "classifier.rows_scored",
    "classifier.basis_rows_scored",
    "datasets.csv_bytes_written",
    "datasets.csv_bytes_read",
    "persist.model_bytes",
    "cli.bytes_written",
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_basis_values(tracer, args, kwargs):
    basis, points = _arg(args, kwargs, 0, "basis"), _arg(args, kwargs, 1, "points")
    rows = len(points)
    tracer.counts["multiindex.values_computed"] += rows * basis.size
    if tracer.open_calls["classifier.scores_batch"]:
        tracer.counts["classifier.basis_rows_scored"] += rows


def _count_gemm(tracer, args, kwargs):
    # The seed scores with V @ E (rows x s x r) and, when the rank r is
    # below the basis size s, rebuilds V from C @ E.T for the residual.
    ev, points = _arg(args, kwargs, 0, "ev"), _arg(args, kwargs, 1, "points")
    size, rank = ev.basis.size, ev.rank
    products = 2 if rank < size else 1
    flops = 2 * len(points) * size * rank * products
    tracer.counts["christoffel.gemm_gflop"] += flops / 1e9


def _count_rows_scored(tracer, args, kwargs):
    tracer.counts["classifier.rows_scored"] += len(_arg(args, kwargs, 1, "points"))


def _size_counter(counter, position, name):
    def hook(tracer, args, kwargs):
        tracer.counts[counter] += os.path.getsize(_arg(args, kwargs, position, name))

    return hook


def _count_cli_output(tracer, args, kwargs):
    out = getattr(args[0], "out", None)
    if out:
        tracer.counts["cli.bytes_written"] += os.path.getsize(out)


HOOKS = {
    "multiindex.eval_monomials_batch": _count_basis_values,
    "christoffel.eval_cf_batch": _count_gemm,
    "classifier.scores_batch": _count_rows_scored,
    "datasets.write_csv": _size_counter("datasets.csv_bytes_written", 1, "path"),
    "datasets.read_csv": _size_counter("datasets.csv_bytes_read", 0, "path"),
    "datasets.read_points_csv": _size_counter("datasets.csv_bytes_read", 0, "path"),
    "persist.save_model": _size_counter("persist.model_bytes", 1, "path"),
    "cli.cmd_predict": _count_cli_output,
    "cli.cmd_eval": _count_cli_output,
    "cli.cmd_levelset": _count_cli_output,
    "cli.cmd_sweep": _count_cli_output,
}


class Tracer:
    """Records spans and counts while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.open_calls = dict.fromkeys(LAYERS, 0)
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def __enter__(self):
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "cfkit" or name.startswith("cfkit.")
        ]
        for name in LAYERS:
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"cfkit.{module_name}"), attr)
            wrapper = self._wrap(name, original, HOOKS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._bindings.append((module, key, original))
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._bindings):
            setattr(module, key, original)
        self._bindings.clear()
        return False

    def _wrap(self, name, fn, hook):
        spans, stack, open_calls = self.spans, self._stack, self.open_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            open_calls[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                open_calls[name] -= 1
            if hook is not None:
                hook(self, args, kwargs)
            return result

        return traced

    def covered_s(self) -> float:
        """Total duration of the root spans (time inside any traced call)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def self_times(self) -> tuple[dict, dict]:
        """Per-layer (self seconds, call count) over every recorded span."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for name, start, end, parent in self.spans:
            self_s[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return self_s, calls
