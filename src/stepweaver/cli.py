"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 parse or argument error,
3 type/class error, 4 I/O or schema error, 5 resource cap exceeded.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__, dsl, gd, optimizer
from .io import RunConfig, ScheduleFileError, load_schedule, dumps_schedule
from .schedule import (
    ClassMismatchError,
    CompClass,
    IdentityError,
    ResourceCapError,
    ScheduleError,
    UncertifiedScheduleError,
)
from .verify import defining_slack, verify_schedule

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_IO = 4
EXIT_CAP = 5


def _class_arg(value: str) -> CompClass:
    try:
        return CompClass(value.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected f, g, or s, got {value!r}") from None


def _nonnegative_int(value: str) -> int:
    if not value.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value!r}")
    return int(value)


def _positive_int(value: str, base: int = 10) -> int:
    try:
        number = int(value, base)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return number


def _write_file(path: str, write, notice: str) -> None:
    """Open the output file ``path`` (UTF-8, line ends as written), fill it
    with ``write(fh)`` and print ``notice``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write(fh)
    print(notice)


def cmd_compose(args) -> int:
    schedule, ast = dsl.compile_expression(args.expr, args.comp_class)
    text = dumps_schedule(
        schedule,
        construction=dsl.format_expr(ast),
        provenance=f"stepweaver {__version__} compose",
    )
    if args.out is not None:
        _write_file(args.out, lambda fh: fh.write(text), f"wrote {args.out}: {schedule.describe()}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_OBS = {CompClass.S: optimizer.obs_s, CompClass.F: optimizer.obs_f, CompClass.G: optimizer.obs_g}


def cmd_optimize(args) -> int:
    if args.n > optimizer.MAX_OBS_LEN:
        raise ResourceCapError(
            f"--n {args.n} exceeds the largest accepted length {optimizer.MAX_OBS_LEN} (O(N^2) table fill)"
        )
    tables = optimizer.load_or_build(args.n + 1, args.cache, f_table=args.comp_class is not CompClass.S)
    schedule = _OBS[args.comp_class](args.n, tables)
    macro = f"obs{args.comp_class.value}"
    if args.table is not None:
        tab = tables.s_rate if args.comp_class is CompClass.S else tables.f_rate
        _write_file(
            args.table, lambda fh: optimizer.write_rate_csv(fh, args.n + 1, {"": tab}), f"wrote rate table {args.table}"
        )
    if args.out is not None:
        text = dumps_schedule(
            schedule, construction=f"{macro}({args.n})", provenance=f"stepweaver {__version__} optimize"
        )
        _write_file(args.out, lambda fh: fh.write(text), f"wrote {args.out}: {schedule.describe()}")
    else:
        print(schedule.describe())
        print("steps:", " ".join(format(s, ".17g") for s in schedule.steps))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = RunConfig.from_json(fh.read())
    else:
        config = RunConfig()
    overrides = {}
    if args.battery is not None:
        overrides["battery"] = args.battery
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)  # re-runs validation
    schedule = load_schedule(args.file, config.identity_tol)
    report = verify_schedule(schedule, config)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _number(convert, text, field: str):
    try:
        return convert(text)
    except ValueError:
        raise ScheduleError(f"{field}: expected {convert.__name__}, got {text!r}") from None


def _at_least(least: int, text, field: str) -> int:
    value = _number(int, text, field)
    if value < least:
        kind = "positive" if least == 1 else "nonnegative"
        raise ScheduleError(f"{field}: expected a {kind} integer, got {value}")
    return value


_FUNCTION_KEYS = {"quad": ("a",), "huber": ("delta",), "random": ("d", "seed")}


def _parse_function(spec: str):
    kind, _, body = spec.partition(":")
    if kind not in _FUNCTION_KEYS:
        raise ScheduleError(f"unknown function {kind!r}: expected quad, huber, or random")
    params = {}
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ScheduleError(f"bad function parameter {item!r} in {spec!r}")
            if key in params or key not in _FUNCTION_KEYS[kind]:
                why = "repeated key" if key in params else "unknown key, expected " + " or ".join(_FUNCTION_KEYS[kind])
                raise ScheduleError(f"--function {kind}:{key}: {why}")
            params[key] = value.strip()
    if kind == "quad":
        return gd.quad_instance(_number(float, params.get("a", 1.0), "--function quad:a"))
    if kind == "huber":
        if "delta" not in params:
            raise ScheduleError("huber function needs delta=<value>")
        return gd.huber_instance(_number(float, params["delta"], "--function huber:delta"))
    d = _at_least(1, params.get("d", 8), "--function random:d")
    seed = _at_least(0, params.get("seed", 0), "--function random:seed")
    return gd.random_instance(np.random.default_rng(seed), d)


def cmd_run(args) -> int:
    schedule = load_schedule(args.file)
    instance = _parse_function(args.function)
    if args.x0 is None:
        x0 = np.ones(instance.dim)
    else:
        vals = [_number(float, v, "--x0") for v in args.x0.split(",")]
        x0 = np.full(instance.dim, vals[0]) if len(vals) == 1 else np.array(vals)
    # an overflow is reported below, before anything is written
    with np.errstate(over="ignore", invalid="ignore"):
        trace = gd.run(schedule, instance, x0)
        finite = (
            np.isfinite(trace.x).all(axis=1)
            & np.isfinite(np.linalg.norm(trace.g, axis=1))
            & np.isfinite(trace.f)
        )
        summary = {
            "instance": instance.describe(),
            "class": schedule.comp_class.value,
            "rate": schedule.rate,
            "objective_gap": trace.objective_gap(),
            "half_grad_sq": trace.half_grad_sq(),
            "half_dist_sq": trace.half_dist_sq(),
            "defining_slack": defining_slack(schedule, trace),
        }
    if not finite.all():
        raise ScheduleError(
            f"trace row {int(np.argmin(finite))} of 0..{trace.n} overflows; rerun from a smaller --x0"
        )
    for key, value in summary.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ScheduleError(f"{key} overflows on this trace; rerun from a smaller --x0")
    if args.out is not None:
        _write_file(args.out, trace.to_csv, f"wrote trace {args.out}")
    else:
        sys.stdout.write(trace.to_csv())
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.k > optimizer.MAX_LEVEL:
        raise ResourceCapError(
            f"--k {args.k} exceeds the largest accepted level {optimizer.MAX_LEVEL} (O(4^k) table fill)"
        )
    n_rows = 2 ** (args.k + 1) - 1
    if args.k > 12 and not args.force:
        raise ResourceCapError(
            f"--k {args.k} needs an O(4^k) table fill (N={n_rows}); rerun with --force "
            "to enter the long-running mode"
        )
    tables = optimizer.load_or_build(n_rows, args.cache)
    consts = optimizer.asymptotic_constants(args.k, tables)
    print(f"p,{format(consts.p, '.17g')}")
    print(f"c_low,{format(consts.c_low, '.17g')}")
    print("k,r_obs_s,r_obs_f")
    for k in range(args.k + 1):
        print(f"{k},{format(consts.r_obs_s[k], '.17g')},{format(consts.r_obs_f[k], '.17g')}")
    if args.out is not None:
        columns = {"s_": tables.s_rate, "f_": tables.f_rate}
        notice = f"wrote normalized rates {args.out}"
        _write_file(args.out, lambda fh: optimizer.write_rate_csv(fh, n_rows, columns), notice)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stepweaver",
        description="Construct, optimize, and verify stepsize schedules for gradient descent.",
    )
    p.add_argument("--version", action="version", version=f"stepweaver {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compose", help="evaluate a composition expression")
    c.add_argument("expr", help='e.g. "((e >< e) |> (e |> e))" or "silver(3)"')
    c.add_argument("--class", dest="comp_class", type=_class_arg, default=None)
    c.add_argument("--out", help="write a schedule file instead of stdout")
    c.set_defaults(func=cmd_compose)

    o = sub.add_parser("optimize", help="rate-optimal schedule of a given length")
    o.add_argument("--class", dest="comp_class", type=_class_arg, required=True)
    o.add_argument(
        "--n", type=_nonnegative_int, required=True, help=f"schedule length, at most {optimizer.MAX_OBS_LEN}"
    )
    o.add_argument("--out", help="write the schedule file here")
    o.add_argument("--table", help="write the rate table CSV here")
    o.add_argument("--cache", help="table cache directory (default: $STEPWEAVER_CACHE)")
    o.set_defaults(func=cmd_optimize)

    v = sub.add_parser("verify", help="run the verification checks on a schedule file")
    v.add_argument("file")
    v.add_argument("--config", help="RunConfig JSON file")
    v.add_argument("--battery", type=_positive_int, default=None)
    v.add_argument("--seed", type=lambda s: _positive_int(s, 0), default=None, help="e.g. 101 or 0xC0FFEE")
    v.add_argument("--json", action="store_true", help="print the JSON report")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("run", help="run gradient descent and emit the trace CSV")
    r.add_argument("file")
    r.add_argument(
        "--function",
        default="quad:a=1",
        help="quad:a=A | huber:delta=D | random:d=D,seed=S",
    )
    r.add_argument("--x0", default=None, help="comma-separated start point (scalar broadcasts)")
    r.add_argument("--out", help="write the trace CSV here")
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("bounds", help="normalized-rate constants and envelope data")
    b.add_argument("--k", type=_nonnegative_int, required=True, help="largest dyadic level")
    b.add_argument("--out", help="write per-n normalized rates CSV here")
    b.add_argument("--force", action="store_true", help=f"allow 12 < k <= {optimizer.MAX_LEVEL} (long-running)")
    b.add_argument("--cache", help="table cache directory (default: $STEPWEAVER_CACHE)")
    b.set_defaults(func=cmd_bounds)
    return p


# The first row whose error types match an error gives its exit code, so
# subclasses come before ScheduleError.
_EXIT_CODES = (
    ((dsl.DslSyntaxError,), EXIT_PARSE),
    ((dsl.DslTypeError, ClassMismatchError, UncertifiedScheduleError, IdentityError), EXIT_TYPE),
    ((ScheduleFileError, OSError), EXIT_IO),
    ((ResourceCapError,), EXIT_CAP),
    ((ScheduleError,), EXIT_PARSE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("out", "table"):  # before any work, so nothing reaches stdout
            if getattr(args, flag, None) == "":
                raise ScheduleFileError(f"--{flag}: empty path")
        return args.func(args)
    except tuple(t for types, _ in _EXIT_CODES for t in types) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(err, types))


if __name__ == "__main__":
    sys.exit(main())
