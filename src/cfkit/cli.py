"""Command-line pipeline: synth, train, predict, eval, levelset, sweep.

Shape spec files list one shape per line as whitespace-separated
``key=value`` tokens; blank lines and lines starting with ``#`` are
skipped.  Examples::

    class=1 kind=disk center=-2,0 radius=1
    class=2 kind=annulus center=2,0 inner=0.5 outer=1
    class=3 kind=box low=-1,-1 high=1,1

Exit codes: 0 success, 2 usage error (also a bad value of a flag that holds
for the whole run, checked before any work), 3 data error, 4 numerical
failure.  Metrics are printed as a key-value text document; tables are CSV.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import classifier, datasets, metrics, persist
from .christoffel import ThresholdPolicy
from .errors import DataError, NumericalError


class UsageError(Exception):
    """Bad flag values detected after argument parsing."""


def read_shape_specs(path) -> list[datasets.ShapeSpec]:
    """Parse a shape spec file, reporting the line of any malformed entry."""
    try:
        lines = datasets.read_ascii_lines(path)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None
    specs = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = {}
        for token in text.split():
            key, sep, value = token.partition("=")
            if not sep:
                raise DataError(f"{path}: line {lineno}: expected key=value, got {token!r}")
            fields[key] = value
        try:
            specs.append(_spec_from_fields(fields))
        except (DataError, KeyError, ValueError) as exc:
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


def _parse_policy(text):
    try:
        return ThresholdPolicy.from_string(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_int_list(text, flag):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated integer list") from None
    if not values:
        raise UsageError(f"{flag} must not be empty")
    return values


def _require_finite(value, flag):
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value!r}")


def cmd_synth(args):
    specs = read_shape_specs(args.spec)
    data = datasets.gen_shapes(specs, args.n, args.seed)
    datasets.write_csv(data, args.out)
    print(f"wrote {args.out}: {data.n_points} rows, n={data.n}, m={data.m}")
    return 0


def cmd_train(args):
    if args.reject_gamma is not None:
        _require_finite(args.reject_gamma, "--reject-gamma")
    data = datasets.read_csv(args.data)
    policy = _parse_policy(args.threshold_policy)
    if args.degree == "auto":
        degree = None
    else:
        try:
            degree = int(args.degree)
        except ValueError:
            raise UsageError("--degree expects an integer or 'auto'") from None
    model = classifier.fit(
        data,
        degree=degree,
        policy=policy,
        scale=not args.no_scale,
        class_prior_weights=args.class_prior_weights,
        reject_threshold=args.reject_gamma,
    )
    size = model.evaluators[0].basis.size
    print(f"degree {model.degree} (basis size {size})")
    for j, ev in enumerate(model.evaluators, start=1):
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
    reported = sc * _score_scale(model, args.normalize)
    header = [f"x{i + 1}" for i in range(model.n)]
    blocks = [points]
    if labels is not None:
        header.append("label")
        blocks.append(labels)
    header.append("predicted")
    header += [f"score_{j + 1}" for j in range(model.m)]
    datasets.write_table(args.out, header, *blocks, predicted, reported)
    print(f"wrote {args.out}: {points.shape[0]} predictions")
    return 0


def _score_scale(model, normalize):
    if not normalize:
        return np.ones(model.m)
    return np.array([ev.basis.size / ev.mass for ev in model.evaluators])


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
    bounds = _parse_bounds(args.bounds, model.n)
    if not 2 <= args.grid_res <= 2000:
        raise UsageError("--grid-res must be between 2 and 2000")
    if args.grid_res**model.n > _MAX_GRID_CELLS:
        raise UsageError(
            f"--grid-res {args.grid_res} gives {args.grid_res**model.n} cells in "
            f"{model.n} dimensions; at most {_MAX_GRID_CELLS} are allowed"
        )
    if args.gamma == "auto":
        gamma = np.asarray(model.train_score_floor, dtype=np.float64)
    else:
        try:
            value = float(args.gamma)
        except ValueError:
            raise UsageError("--gamma expects a float or 'auto'") from None
        _require_finite(value, "--gamma")
        gamma = np.full(model.m, value)
    axes = [np.linspace(lo, hi, args.grid_res) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    sc = classifier.scores_batch(model, grid)
    member = sc >= gamma
    reported = sc * _score_scale(model, args.normalize)

    header = [f"x{i + 1}" for i in range(model.n)]
    header += [f"lambda_{j + 1}" for j in range(model.m)]
    header += [f"member_{j + 1}" for j in range(model.m)]
    datasets.write_table(args.out, header, grid, reported, member)

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


def _parse_bounds(text, n):
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"--bounds must give {n} ranges like lo:hi,lo:hi")
    bounds = []
    for part in parts:
        lo, sep, hi = part.partition(":")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise UsageError(f"bad bound {part!r}") from None
        if not sep or not lo < hi or not math.isfinite(hi - lo):
            raise UsageError(f"bad bound {part!r}")
        bounds.append((lo, hi))
    return bounds


def cmd_sweep(args):
    n_list = _parse_int_list(args.n_list, "--n-list")
    t_list = _parse_int_list(args.t_list, "--t-list")
    seeds = _parse_int_list(args.seeds, "--seeds")
    for flag, values, low in (("--n-list", n_list, 1), ("--t-list", t_list, 1),
                              ("--test-n", [args.test_n], 1), ("--seeds", seeds, 0)):
        if min(values) < low:
            raise UsageError(f"{flag} must be at least {low}")
    if not 0 <= args.epsilon < math.inf:
        raise UsageError(f"--epsilon must be finite and at least 0, got {args.epsilon!r}")
    specs = read_shape_specs(args.spec)
    lines = ["n,t,seed,accuracy,eps_interior_accuracy,runtime_seconds,error"]
    for n_train in n_list:
        for t in t_list:
            for seed in seeds:
                started = time.perf_counter()
                try:
                    train = datasets.gen_shapes(specs, n_train, seed)
                    test = datasets.gen_shapes(specs, args.test_n, seed + 999983)
                    model = classifier.fit(train, degree=t)
                    report = metrics.evaluate_model(
                        model, test, specs=specs, eps=args.epsilon
                    )
                    elapsed = time.perf_counter() - started
                    eps_acc = report.eps_interior_accuracy
                    lines.append(
                        f"{n_train},{t},{seed},{report.accuracy!r},"
                        f"{'' if eps_acc is None else repr(eps_acc)},"
                        f"{elapsed:.4f},"
                    )
                except (DataError, NumericalError, ValueError) as exc:
                    elapsed = time.perf_counter() - started
                    message = str(exc).replace(",", ";").replace("\n", " ")
                    lines.append(f"{n_train},{t},{seed},,,{elapsed:.4f},{message}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}: {len(lines) - 1} rows")
    return 0


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
    p.add_argument("--n", type=int, required=True, help="points per listed shape")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit per-class evaluators and save a model")
    p.add_argument("data", help="labeled CSV")
    p.add_argument("--degree", default="auto", help="polynomial degree or 'auto'")
    p.add_argument("--threshold-policy", default=ThresholdPolicy().to_string(),
                   help="rel:<float> or tikhonov:<float>")
    p.add_argument("--class-prior-weights", action="store_true",
                   help="weight class measures by class frequency")
    p.add_argument("--no-scale", action="store_true",
                   help="skip rescaling inputs to the unit box")
    p.add_argument("--reject-gamma", type=float, default=None,
                   help="reject queries whose best score is below this")
    p.add_argument("--seed", type=int, default=None,
                   help="recorded in the model metadata")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="append predicted labels and scores")
    p.add_argument("model")
    p.add_argument("data", help="query CSV (label column optional)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale scores by basis size over mass")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a model on labeled data")
    p.add_argument("model")
    p.add_argument("data", help="labeled CSV")
    p.add_argument("--shapes", default=None, help="shape spec for interior accuracy")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("levelset", help="score a grid and report overlaps")
    p.add_argument("model")
    p.add_argument("--bounds", required=True, help="per-axis ranges lo:hi,lo:hi")
    p.add_argument("--grid-res", type=int, default=64)
    p.add_argument("--gamma", default="auto",
                   help="superlevel threshold, float or 'auto'")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("sweep", help="factorial (N, t, seed) experiment")
    p.add_argument("spec", help="shape spec file")
    p.add_argument("--n-list", required=True)
    p.add_argument("--t-list", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--test-n", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
