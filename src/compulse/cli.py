"""Command-line front end.

Subcommands wrap the library: ``build`` emits sequence text, ``simulate``
evaluates one error magnitude, ``scan`` sweeps a grid to CSV, ``fit``
reports a log-log slope, ``expand`` extracts a series coefficient,
``plan`` runs the correction-axis planner, and ``table`` prints the
reference infidelity table.

Exit codes: 0 success, 2 configuration or parse errors, 3 numeric-domain
errors (principal-branch overflow, degenerate directions, unreachable
goals, too few fit points).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, error_models, orders, sequences, su2
from .analysis import (
    DegenerateDirectionError,
    FitError,
    component_scan,
    default_scales,
    fit_order,
    format_sci,
    infidelity_table,
    series_coefficient,
    to_csv,
)
from .precision import DEFAULT_DIGITS, ENV_DIGITS, PrecisionError, set_digits
from .sequences import DslError, SequenceError, build_builtin, evaluate, parse, parse_target, serialize
from .su2 import BranchError, InvalidAxisError

CONFIG_ERRORS = (
    DslError,
    SequenceError,
    error_models.ModelConfigError,
    PrecisionError,
    InvalidAxisError,
)
DOMAIN_ERRORS = (BranchError, DegenerateDirectionError, FitError, orders.PlanningError)

EXIT_CONFIG = 2
EXIT_DOMAIN = 3


def _add_sequence_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", help="builtin sequence name (see 'build --list')")
    p.add_argument("--file", help="sequence file in the pulse text format")
    p.add_argument("--target", default="x-pi", help="target gate, e.g. x-pi, z-pi/2 (default x-pi)")


def _load_sequence(args) -> sequences.PulseSequence:
    if bool(args.seq) == bool(args.file):
        raise SequenceError("give exactly one of --seq or --file")
    if args.file:
        with open(args.file, "rb") as fh:
            raw = fh.read()
        try:
            return parse(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            line, column = raw.count(b"\n", 0, exc.start) + 1, exc.start - raw.rfind(b"\n", 0, exc.start)
            raise DslError(f"not valid UTF-8 ({exc.reason})", line, column) from None
    return build_builtin(args.seq, parse_target(args.target))


def _parse_grid(spec: str):
    try:
        lo, hi, per = spec.split(":")
        return default_scales(lo, hi, int(per))
    except ValueError as exc:
        raise SequenceError(f"bad grid {spec!r}: expected lo:hi:per_decade") from exc


def _parse_orders_spec(spec: str) -> dict:
    out = {}
    for piece in spec.split(","):
        key, _, val = piece.partition("=")
        try:
            if not key:
                raise ValueError
            out[key.strip()] = int(val)
        except ValueError:
            raise SequenceError(f"bad orders spec {spec!r}: expected name=power[,name=power...]") from None
    return out


def _parse_triple(spec: str) -> orders.OrderTriple:
    parts = spec.split(",")
    if len(parts) != 3:
        raise SequenceError(f"bad order triple {spec!r}: expected a,b,c with inf allowed")
    try:
        return orders.OrderTriple(*(orders.parse_order(p) for p in parts))
    except ValueError as exc:
        raise SequenceError(f"bad order triple {spec!r}: {exc}") from None


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_table(args) -> str:
    table = infidelity_table()
    names = analysis.TABLE_SEQUENCES
    widths = [max(len(n), 8) for n in names]
    header = "eps    " + "  ".join(n.ljust(w) for n, w in zip(names, widths))
    lines = [header]
    for eps in analysis.TABLE_EPS:
        cells = [format_sci(table[(eps, n)], 2).ljust(w) for n, w in zip(names, widths)]
        lines.append(f"{eps:<5}  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def cmd_build(args) -> str:
    if args.list:
        return "\n".join(sequences.BUILTIN_NAMES) + "\n"
    if not args.seq:
        raise SequenceError("build needs --seq (or --list)")
    return serialize(build_builtin(args.seq, parse_target(args.target)))


def cmd_simulate(args) -> str:
    eps = error_models._parse_number(args.eps, "--eps")
    seq = _load_sequence(args)
    model = error_models.parse_model(args.model) if args.model else None
    ideal = seq.ideal_unitary()
    actual = evaluate(seq, model, eps, args.perfect_pi3)
    cx, cy, cz = su2.trace_components(ideal, actual)
    infid = su2.infidelity(ideal, actual)
    sig = max(8, min(args.digits, 17))
    lines = [
        f"sequence    {seq.name or 'file'}",
        f"model       {error_models.describe(model)}",
        f"eps         {args.eps}",
        f"cx          {format_sci(cx, sig)}",
        f"cy          {format_sci(cy, sig)}",
        f"cz          {format_sci(cz, sig)}",
        f"infidelity  {format_sci(infid, sig)}",
    ]
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> str:
    seq = _load_sequence(args)
    model = error_models.parse_model(args.model)
    scan = component_scan(seq, model, _parse_grid(args.grid), args.perfect_pi3)
    return to_csv(scan)


def cmd_fit(args) -> str:
    seq = _load_sequence(args)
    model = error_models.parse_model(args.model)
    scan = component_scan(seq, model, _parse_grid(args.grid), args.perfect_pi3)
    fit = fit_order(scan, args.column)
    return (
        f"column        {args.column}\n"
        f"slope         {fit.slope:.6f}\n"
        f"intercept     {fit.intercept:.6f}\n"
        f"max_residual  {fit.max_residual:.3e}\n"
        f"points        {fit.n_points}\n"
    )


def cmd_expand(args) -> str:
    seq = _load_sequence(args)
    factory = analysis.FAMILIES.get(args.family)
    if factory is None:
        raise SequenceError(
            f"unknown family {args.family!r} (choose from {', '.join(sorted(analysis.FAMILIES))})"
        )
    family = factory()
    spec = _parse_orders_spec(args.orders)
    coef = series_coefficient(seq, family, spec, args.component)
    return f"coefficient {format_sci(coef, min(args.digits, 20))}\n"


def cmd_plan(args) -> str:
    deltas = None
    if args.deltas:
        d = _parse_triple(args.deltas)
        deltas = orders.DeltaOrders(*d)
    result = orders.plan(
        _parse_triple(args.start),
        regime=args.regime,
        deltas=deltas,
        goal_min_order=args.goal,
        depth=args.depth,
    )
    lines = [f"schedule  {','.join(result.schedule) or '(empty)'}"]
    for axis, triple in zip(("start",) + result.schedule, result.triples):
        lines.append(f"  {axis:<6} {triple}")
    lines.append(f"final     {result.final}")
    lines.append(
        f"pulses    {result.total_pulses} total = {result.target_pulses} target"
        f" + {result.correction_pulses} correction"
    )
    return "\n".join(lines) + "\n"


def _add_global_args(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # registered on the main parser and again on every subparser (with
    # SUPPRESS defaults so they don't clobber), letting --digits/--out
    # appear on either side of the subcommand; an unset --digits falls back
    # to the environment in main (see _digits)
    if top_level:
        digits_default = out_default = None
    else:
        digits_default = out_default = argparse.SUPPRESS
    parser.add_argument(
        "--digits",
        type=int,
        default=digits_default,
        help=f"working precision in decimal digits (default {DEFAULT_DIGITS}, env {ENV_DIGITS})",
    )
    parser.add_argument("--out", default=out_default, help="write output to this path instead of stdout")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compulse",
        description="Composite pulse sequences: build, simulate, scan, fit, expand, plan.",
    )
    _add_global_args(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sub(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_global_args(p, top_level=False)
        p.set_defaults(func=func)
        return p

    add_sub("table", cmd_table, "infidelity table of the reference sequences (needs >= 50 digits)")

    p = add_sub("build", cmd_build, "emit a builtin sequence in the pulse text format")
    p.add_argument("--seq", help="builtin sequence name")
    p.add_argument("--target", default="x-pi")
    p.add_argument("--list", action="store_true", help="list builtin names")

    p = add_sub("simulate", cmd_simulate, "evaluate a sequence under an error model")
    _add_sequence_args(p)
    p.add_argument("--model", help="error model config, e.g. 'model=linear eps=0.01'")
    p.add_argument("--eps", default="1", help="error scale multiplying the model coefficients")
    p.add_argument("--perfect-pi3", action="store_true", help="hold pi/3 correction pulses ideal")

    for name, func, help_text in (
        ("scan", cmd_scan, "sweep the error scale over a log grid, CSV output"),
        ("fit", cmd_fit, "fit the log-log order of a scan column"),
    ):
        p = add_sub(name, func, help_text)
        _add_sequence_args(p)
        p.add_argument("--model", required=True)
        p.add_argument("--grid", default="1e-4:1e-1:9", help="lo:hi:per_decade (default 1e-4:1e-1:9)")
        p.add_argument("--perfect-pi3", action="store_true")
        if name == "fit":
            p.add_argument("--column", default="infidelity", choices=("cx", "cy", "cz", "infidelity"))

    p = add_sub("expand", cmd_expand, "series coefficient by finite differences (needs >= 50 digits)")
    _add_sequence_args(p)
    p.add_argument("--family", required=True, help=", ".join(sorted(analysis.FAMILIES)))
    p.add_argument("--orders", required=True, help="e.g. ex=1 or dy=1,ex=1")
    p.add_argument("--component", required=True, choices=("x", "y", "z"))

    p = add_sub("plan", cmd_plan, "greedy correction-axis schedule in the order calculus")
    p.add_argument("--regime", default="perfect", choices=orders.REGIMES)
    p.add_argument("--start", required=True, help="order triple a,b,c (inf allowed)")
    p.add_argument("--deltas", help="covariant delta orders d,e,f (own frame; default 1,inf,inf)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--goal", type=int, help="run until the minimum order reaches this")
    group.add_argument("--depth", type=int, help="run exactly this many corrections")

    return parser


def _digits(args) -> int:
    """--digits, else $COMPULSE_DIGITS, else the default."""
    if args.digits is not None:
        return args.digits
    raw = os.environ.get(ENV_DIGITS)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        return int(raw)
    except ValueError:
        raise PrecisionError(f"{ENV_DIGITS}={raw!r} is not an integer number of digits") from None


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        args.digits = _digits(args)
        set_digits(args.digits)
        text = args.func(args)
        _write(args, text)
    except DOMAIN_ERRORS as exc:
        print(f"compulse: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CONFIG_ERRORS as exc:
        print(f"compulse: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"compulse: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
