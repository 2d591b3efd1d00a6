"""Command-line pipeline: synth, train, predict, eval, levelset, sweep.

Shape spec files list one shape per line as whitespace-separated
``key=value`` tokens; blank lines and lines starting with ``#`` are
skipped.  Examples::

    class=1 kind=disk center=-2,0 radius=1
    class=2 kind=annulus center=2,0 inner=0.5 outer=1
    class=3 kind=box low=-1,-1 high=1,1

Exit codes: 0 success, 2 usage error, 3 data error (a file that cannot be
opened is reported as ``<filename>: <strerror>``), 4 numerical failure.
Each flag's value is converted and checked by the argparse ``type`` that
declares it (see ``_flag``), so a bad one exits 2 before any file is read;
the ``levelset`` limits that depend on the model's dimension are checked
right after the model is loaded.  Metrics are printed as a key-value text
document; tables are CSV.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import classifier, datasets, metrics, persist
from .christoffel import ThresholdPolicy
from .errors import DataError, NumericalError


class UsageError(Exception):
    """A bad flag value.  Each flag's argparse ``type`` raises it while the
    command line is parsed; only ``levelset`` checks, once the model is read,
    the flags whose limits depend on the model's dimension."""


def read_shape_specs(path) -> list[datasets.ShapeSpec]:
    """Parse a shape spec file, reporting the line of any malformed entry."""
    specs = []
    for lineno, line in enumerate(datasets.read_ascii_lines(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = {}
        for token in text.split():
            key, sep, value = token.partition("=")
            if not sep:
                raise DataError(f"{path}: line {lineno}: expected key=value, got {token!r}")
            if key in fields:
                raise DataError(f"{path}: line {lineno}: duplicate key {key!r}")
            fields[key] = value
        try:
            specs.append(_spec_from_fields(fields))
        except KeyError as exc:
            raise DataError(f"{path}: line {lineno}: missing key {exc}") from None
        except (DataError, ValueError) as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
    if not specs:
        raise DataError(f"{path}: no shapes defined")
    return specs


def _spec_from_fields(fields):
    kind = fields.pop("kind")
    label = int(fields.pop("class"))
    kwargs = {}
    for key, value in fields.items():
        if key in ("center", "low", "high"):
            kwargs[key] = tuple(float(v) for v in value.split(","))
        elif key in ("radius", "inner", "outer"):
            kwargs[key] = float(value)
        else:
            raise DataError(f"unknown key {key!r}")
    return datasets.ShapeSpec(kind=kind, label=label, **kwargs)


def _flag(flag, convert, ok=lambda value: True, need=""):
    """The argparse ``type`` of ``flag``: ``convert`` the text, then require
    ``ok`` of the value, which the message calls ``need``.  A ValueError from
    ``convert`` or a value that fails ``ok`` is a UsageError naming the flag,
    raised while the command line is parsed, before any command runs."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from None
        if not ok(value):
            raise UsageError(f"{flag} must be {need}, got {text!r}")
        return value

    return parse


def _or_auto(convert):
    """``convert``, except that the text ``auto`` becomes None."""
    return lambda text: None if text == "auto" else convert(text)


def _ints(text):
    values = [int(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError("expects a comma-separated integer list")
    return values


def _bounds(text):
    """``lo:hi,lo:hi,...`` as (lo, hi) pairs, each with lo < hi and a finite width."""
    bounds = []
    for part in text.split(","):
        try:
            lo, hi = map(float, part.split(":"))
        except ValueError:
            lo = hi = math.nan
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"bad bound {part!r}")
        bounds.append((lo, hi))
    return bounds


_EPSILON = _flag("--epsilon", float, lambda v: 0 <= v < math.inf, "finite and at least 0")
_SEED = _flag("--seed", int, lambda v: v >= 0, "at least 0")


def cmd_synth(args):
    specs = read_shape_specs(args.spec)
    data = datasets.gen_shapes(specs, args.n, args.seed)
    datasets.write_csv(data, args.out)
    print(f"wrote {args.out}: {data.n_points} rows, n={data.n}, m={data.m}")
    return 0


def cmd_train(args):
    data = datasets.read_csv(args.data)
    model = classifier.fit(
        data,
        degree=args.degree,
        policy=args.threshold_policy,
        scale=not args.no_scale,
        class_prior_weights=args.class_prior_weights,
        reject_threshold=args.reject_gamma,
    )
    size = model.evaluators[0].basis.size
    print(f"degree {model.degree} (basis size {size})")
    for j, ev in enumerate(model.evaluators, start=1):
        if ev.factor is not None:
            # Cholesky pivots L_kk^2 = 1 / R_kk^2 lie inside the spectrum of M + eps I.
            pivots = 1.0 / np.diag(ev.scoring) ** 2
            print(
                f"class {j}: rank {ev.rank}/{size} ridge {model.policy.value:.3e} "
                f"pivot_max {pivots.max():.3e} pivot_min {pivots.min():.3e}"
            )
        else:
            lam_max = float(ev.eigenvalues[0])
            lam_min = float(ev.eigenvalues[-1])
            print(
                f"class {j}: rank {ev.rank}/{size} "
                f"lambda_max {lam_max:.3e} lambda_min {lam_min:.3e} "
                f"cond {lam_max / lam_min:.3e}"
            )
            if ev.rank < size:
                print(f"class {j}: rank-deficient moment matrix (pseudo-inverse in use)")
    metadata = {"seed": args.seed, "dataset_sha256": persist.file_sha256(args.data)}
    persist.save_model(model, args.out, metadata=metadata)
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args):
    model = persist.load_model(args.model)
    points, labels = datasets.read_points_csv(args.data)
    if points.shape[1] != model.n:
        raise DataError(
            f"queries have {points.shape[1]} features but the model expects {model.n}"
        )
    predicted, sc = classifier.predict_batch(model, points)
    header = [f"x{i + 1}" for i in range(model.n)]
    blocks = [points]
    if labels is not None:
        header.append("label")
        blocks.append(labels)
    header.append("predicted")
    header += [f"score_{j + 1}" for j in range(model.m)]
    datasets.write_table(args.out, header, *blocks, predicted, sc)
    print(f"wrote {args.out}: {points.shape[0]} predictions")
    return 0


def cmd_eval(args):
    model = persist.load_model(args.model)
    data = datasets.read_csv(args.data)
    if data.n != model.n:
        raise DataError(
            f"test data has {data.n} features but the model expects {model.n}"
        )
    specs = read_shape_specs(args.shapes) if args.shapes else None
    started = time.perf_counter()
    report = metrics.evaluate_model(
        model, data, specs=specs, eps=args.epsilon if specs else None
    )
    runtime = time.perf_counter() - started
    text = metrics.render_report(report)
    sys.stdout.write(text)
    print(f"runtime_seconds {runtime:.4f}")
    if args.out:
        _write_text(args.out, text)
    return 0


# The largest 2-D grid, 2000 x 2000 cells, bounds the grid in any dimension.
_MAX_GRID_CELLS = 2000**2


def cmd_levelset(args):
    model = persist.load_model(args.model)
    if model.n > 3:
        raise DataError("levelset grids support at most 3 dimensions")
    if len(args.bounds) != model.n:
        raise UsageError(f"--bounds must give {model.n} ranges like lo:hi,lo:hi")
    if args.grid_res**model.n > _MAX_GRID_CELLS:
        raise UsageError(
            f"--grid-res {args.grid_res} gives {args.grid_res**model.n} cells in "
            f"{model.n} dimensions; at most {_MAX_GRID_CELLS} are allowed"
        )
    if args.gamma is None:
        gamma = classifier.level_scores(model)
    else:
        gamma = np.full(model.m, args.gamma)
    axes = [np.linspace(lo, hi, args.grid_res) for lo, hi in args.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    sc = classifier.scores_batch(model, grid)
    member = sc >= gamma

    header = [f"x{i + 1}" for i in range(model.n)]
    header += [f"lambda_{j + 1}" for j in range(model.m)]
    header += [f"member_{j + 1}" for j in range(model.m)]
    datasets.write_table(args.out, header, grid, sc, member)

    print(f"cells {grid.shape[0]}")
    for j in range(model.m):
        print(f"gamma_{j + 1} {float(gamma[j])!r}")
        print(f"levelset_{j + 1}_cells {int(member[:, j].sum())}")
    for i in range(model.m):
        for j in range(i + 1, model.m):
            count = int(np.sum(member[:, i] & member[:, j]))
            print(f"overlap_{i + 1}_{j + 1} {count}")
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args):
    n_list, t_list, seeds = args.n_list, args.t_list, args.seeds
    specs = read_shape_specs(args.spec)
    groups = {}
    for j, seed in enumerate(seeds):
        # The test set and its mask depend on the seed only; a failed
        # generation is not cached, so it fails every group of the seed.
        test_set = functools.cache(
            functools.partial(_sweep_test_set, specs, args.test_n, seed, args.epsilon)
        )
        for i, n_train in enumerate(n_list):
            groups[i, j] = _sweep_group(specs, n_train, t_list, seed, test_set)
    lines = ["n,t,seed,accuracy,eps_interior_accuracy,runtime_seconds,error"]
    for i, n_train in enumerate(n_list):
        for k, t in enumerate(t_list):
            for j, seed in enumerate(seeds):
                lines.append(f"{n_train},{t},{seed},{groups[i, j][k]}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}: {len(lines) - 1} rows")
    return 0


def _sweep_test_set(specs, test_n, seed, eps):
    """A sweep seed's test set and its eps-interior mask."""
    test = datasets.gen_shapes(specs, test_n, seed + 999983)
    return test, datasets.epsilon_interior_mask(test.points, specs, eps, test.labels)


def _sweep_group(specs, n_train, t_list, seed, test_set):
    """The sweep cells after ``n,t,seed`` for every degree of one (N, seed).

    Train and test data and the fit are shared by the degrees (see
    ``fit_degrees`` and ``metrics.masked_reports``), so an error fills
    every cell of the group.  ``test_set()`` returns the seed's test set
    and eps-interior mask, so the group that first calls it is timed for
    computing them.  Each cell reports the group's wall time over
    ``len(t_list)``, so the runtime column still sums to the sweep time.
    """
    started = time.perf_counter()
    try:
        train = datasets.gen_shapes(specs, n_train, seed)
        test, mask = test_set()
        models = classifier.fit_degrees(train, t_list)
        reports = metrics.masked_reports(models, test, mask)
        cells = []
        for r in reports:
            eps_acc = "" if r.eps_interior_accuracy is None else repr(r.eps_interior_accuracy)
            cells.append((f"{r.accuracy!r},{eps_acc}", ""))
    except (DataError, NumericalError, ValueError) as exc:
        cells = [(",", str(exc).replace(",", ";").replace("\n", " "))] * len(t_list)
    runtime = (time.perf_counter() - started) / len(t_list)
    return [f"{accuracies},{runtime:.4f},{error}" for accuracies, error in cells]


def _write_text(path, text):
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfkit",
        description="Christoffel-function classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="sample a labeled dataset from a shape spec")
    p.add_argument("spec", help="shape spec file")
    p.add_argument("--n", type=_flag("--n", int, lambda v: v >= 1, "at least 1"),
                   required=True, help="points per listed shape")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit per-class evaluators and save a model")
    p.add_argument("data", help="labeled CSV")
    p.add_argument("--degree", default="auto", help="polynomial degree or 'auto'",
                   type=_flag("--degree", _or_auto(int), lambda v: v is None or v >= 1,
                              "auto or at least 1"))
    p.add_argument("--threshold-policy", default=classifier.MODEL_POLICY.to_string(),
                   type=_flag("--threshold-policy", ThresholdPolicy.from_string),
                   help="rel:<float> (finite, >= 0) or tikhonov:<float> (finite, > 0)")
    p.add_argument("--class-prior-weights", action="store_true",
                   help="weight class measures by class frequency")
    p.add_argument("--no-scale", action="store_true",
                   help="skip rescaling inputs to the unit box")
    p.add_argument("--reject-gamma", default=None,
                   type=_flag("--reject-gamma", float, math.isfinite, "finite"),
                   help="reject queries whose best score is below this")
    p.add_argument("--seed", type=_SEED, default=None,
                   help="recorded in the model metadata")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="append predicted labels and scores")
    p.add_argument("model")
    p.add_argument("data", help="query CSV (label column optional)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a model on labeled data")
    p.add_argument("model")
    p.add_argument("data", help="labeled CSV")
    p.add_argument("--shapes", default=None, help="shape spec for interior accuracy")
    p.add_argument("--epsilon", type=_EPSILON, default=0.1)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("levelset", help="score a grid and report overlaps")
    p.add_argument("model")
    p.add_argument("--bounds", type=_flag("--bounds", _bounds), required=True,
                   help="per-axis ranges lo:hi,lo:hi")
    p.add_argument("--grid-res", default=64,
                   type=_flag("--grid-res", int, lambda v: 2 <= v <= 2000,
                              "between 2 and 2000"))
    p.add_argument("--gamma", default="auto",
                   type=_flag("--gamma", _or_auto(float),
                              lambda v: v is None or math.isfinite(v), "finite or auto"),
                   help="superlevel score, or 'auto' for each class's level")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("sweep", help="factorial (N, t, seed) experiment")
    p.add_argument("spec", help="shape spec file")
    p.add_argument("--n-list", required=True,
                   type=_flag("--n-list", _ints, lambda v: min(v) >= 1, "at least 1"))
    p.add_argument("--t-list", required=True,
                   type=_flag("--t-list", _ints, lambda v: min(v) >= 1, "at least 1"))
    p.add_argument("--seeds", required=True,
                   type=_flag("--seeds", _ints, lambda v: min(v) >= 0, "at least 0"))
    p.add_argument("--test-n", default=1000,
                   type=_flag("--test-n", int, lambda v: v >= 1, "at least 1"))
    p.add_argument("--epsilon", type=_EPSILON, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # LinAlgError subclasses ValueError, so it must be caught first.
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 3
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
