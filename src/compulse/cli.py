"""Command-line front end.

Subcommands wrap the library: ``build`` emits sequence text, ``simulate``
evaluates one error magnitude, ``scan`` sweeps a grid to CSV, ``fit``
reports a log-log slope, ``expand`` extracts a series coefficient,
``plan`` runs the correction-axis planner, and ``table`` prints the
reference infidelity table.

Exit codes: 0 success, 2 configuration or parse errors (a bad command
line, a ``concat:`` chain over ``sequences.MAX_LEVELS`` or ``MAX_PULSES``,
a ``--grid`` over ``analysis.MAX_SCALES`` and unreadable or unwritable
files included), 3 numeric-domain errors (principal-branch overflow, a
rotation angle with no phase bit left, unreachable goals, too few fit
points); either is reported on one ``compulse:`` line.
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
import re
import sys

from . import analysis, error_models, orders, sequences, su2
from .analysis import (
    FitError,
    component_scan,
    fit_order,
    format_sci,
    infidelity_table,
    parse_grid,
    series_coefficient,
    to_csv,
)
from .precision import DEFAULT_DIGITS, ENV_DIGITS, PrecisionError, parse_integer, quoted, set_digits
from .sequences import DslError, SequenceError, build_builtin, evaluate, parse, parse_target, serialize
from .su2 import BranchError, InvalidAxisError

CONFIG_ERRORS = (
    DslError,
    SequenceError,
    error_models.ModelConfigError,
    PrecisionError,
    InvalidAxisError,
    OSError,
)
DOMAIN_ERRORS = (BranchError, FitError, orders.PlanningError)

EXIT_CONFIG = 2
EXIT_DOMAIN = 3


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line by raising SequenceError, which main
    reports on one line without the usage; ``--help`` still exits 0."""

    def error(self, message):
        # each value argparse echoes, quoted: a bad choice or explicit argument
        # as repr wrote it, unrecognized arguments and an ambiguous option raw
        echoes = (r"(?s)(?<=^unrecognized arguments: )(.*)|(?<=^ambiguous option: )(.*)(?= could match )"
                  r"|'(?:[^'\\]|\\.)*'" r'|"(?:[^"\\]|\\.)*"')
        raise SequenceError(re.sub(echoes, lambda m: quoted(m[1] or m[2] or ast.literal_eval(m[0])), message))


def _add_sequence_args(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--seq", help="builtin sequence name (see 'build --list')")
    source.add_argument("--file", help="sequence file in the pulse text format")
    p.add_argument("--target", default="x-pi", help="target gate, e.g. x-pi, z-pi/2 (default x-pi)")


def _load_sequence(args) -> sequences.PulseSequence:
    if args.file is not None:
        with open(args.file, "rb") as fh:
            raw = fh.read()
        try:
            return parse(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            line, column = raw.count(b"\n", 0, exc.start) + 1, exc.start - raw.rfind(b"\n", 0, exc.start)
            raise DslError(f"not valid UTF-8 ({exc.reason})", line, column) from None
    return build_builtin(args.seq, parse_target(args.target))


def _parse_orders_spec(spec: str) -> dict:
    out = {}
    for piece in spec.split(","):
        key, _, val = piece.partition("=")
        key = key.strip()
        if key in out:
            raise SequenceError(f"bad orders spec {quoted(spec)}: {quoted(key)} given twice")
        try:
            if not key:
                raise ValueError
            out[key] = parse_integer(val.strip())
        except ValueError:
            raise SequenceError(f"bad orders spec {quoted(spec)}: expected name=power[,name=power...]") from None
    return out


def _integer_flag(flag: str, text):
    """The integer numeral ``text`` of ``flag``, or None when it is unset."""
    if text is None:
        return None
    try:
        return parse_integer(text)
    except ValueError:
        raise SequenceError(f"bad {flag} {quoted(text)}: expected an integer") from None


def _parse_triple(spec: str) -> orders.OrderTriple:
    parts = spec.split(",")
    if len(parts) != 3:
        raise SequenceError(f"bad order triple {quoted(spec)}: expected a,b,c with inf allowed")
    try:
        return orders.OrderTriple(*(orders.parse_order(p) for p in parts))
    except ValueError as exc:
        raise SequenceError(f"bad order triple {quoted(spec)}: {exc}") from None


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
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
    return serialize(build_builtin(args.seq, parse_target(args.target)))


def cmd_simulate(args) -> str:
    eps = error_models.parse_number(args.eps, "--eps")
    seq = _load_sequence(args)
    model = error_models.parse_model(args.model) if args.model else None
    ideal = seq.ideal_unitary()
    actual = evaluate(seq, model, eps)
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


def _scan(args) -> analysis.ScanResult:
    seq = _load_sequence(args)
    model = error_models.parse_model(args.model)
    try:
        grid = parse_grid(args.grid)
    except ValueError as exc:
        raise SequenceError(str(exc)) from None
    return component_scan(seq, model, grid)


def cmd_scan(args) -> str:
    return to_csv(_scan(args))


def cmd_fit(args) -> str:
    fit = fit_order(_scan(args), args.column)
    return (
        f"column        {args.column}\n"
        f"slope         {fit.slope:.6f}\n"
        f"intercept     {fit.intercept:.6f}\n"
        f"max_residual  {fit.max_residual:.3e}\n"
        f"points        {fit.n_points}\n"
    )


def cmd_expand(args) -> str:
    seq = _load_sequence(args)
    family = analysis.FAMILIES[args.family]()
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
        goal_min_order=_integer_flag("--goal", args.goal),
        depth=_integer_flag("--depth", args.depth),
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


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, each call filling a new namespace.  Built on each call, it
    costs 3.4-4.9 ms (median 4.4) of a 30 ms ``text_io`` op."""
    # --digits and --out go on either side of the subcommand, absent when unset (see _digits)
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument(
        "--digits", help=f"working precision in decimal digits (default {DEFAULT_DIGITS}, env {ENV_DIGITS})"
    )
    common.add_argument("--out", help="write output to this path instead of stdout")
    parser = _Parser(
        prog="compulse", parents=[common],
        description="Composite pulse sequences: build, simulate, scan, fit, expand, plan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sub(name, func, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(func=func)
        return p

    add_sub("table", cmd_table, "infidelity table of the reference sequences (needs >= 50 digits)")

    p = add_sub("build", cmd_build, "emit a builtin sequence in the pulse text format")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--seq", help="builtin sequence name")
    source.add_argument("--list", action="store_true", help="list builtin names")
    p.add_argument("--target", default="x-pi")

    p = add_sub("simulate", cmd_simulate, "evaluate a sequence under an error model")
    _add_sequence_args(p)
    p.add_argument("--model", help="error model config, e.g. 'model=linear eps=0.01'")
    p.add_argument("--eps", default="1", help="error scale multiplying the model coefficients")

    for name, func, help_text in (
        ("scan", cmd_scan, "sweep the error scale over a log grid, CSV output"),
        ("fit", cmd_fit, "fit the log-log order of a scan column"),
    ):
        p = add_sub(name, func, help_text)
        _add_sequence_args(p)
        p.add_argument("--model", required=True)
        p.add_argument("--grid", default=analysis.DEFAULT_GRID, help="lo:hi:per_decade (default %(default)s)")
        if name == "fit":
            p.add_argument("--column", default="infidelity", choices=analysis.ScanResult.COLUMNS)

    p = add_sub("expand", cmd_expand, "series coefficient by finite differences (needs >= 50 digits)")
    _add_sequence_args(p)
    p.add_argument("--family", required=True, choices=sorted(analysis.FAMILIES))
    p.add_argument("--orders", required=True, help="e.g. ex=1 or dy=1,ex=1")
    p.add_argument("--component", required=True, choices=analysis.COMPONENTS)

    p = add_sub("plan", cmd_plan, "greedy correction-axis schedule in the order calculus")
    p.add_argument("--regime", default="perfect", choices=orders.REGIMES)
    p.add_argument("--start", required=True, help="order triple a,b,c (inf allowed)")
    p.add_argument("--deltas", help="covariant delta orders d,e,f (own frame; default 1,inf,inf)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--goal", help="run until the minimum order reaches this")
    group.add_argument("--depth", help="run exactly this many corrections")

    return parser


def _digits(args) -> int:
    """--digits, else $COMPULSE_DIGITS, else the default; either source is
    an integer numeral, surrounding blanks allowed."""
    source, raw = "--digits", getattr(args, "digits", None)
    if raw is None:
        source, raw = ENV_DIGITS, os.environ.get(ENV_DIGITS)
        if raw is None:
            return DEFAULT_DIGITS
    try:
        return parse_integer(raw.strip())
    except ValueError:
        raise PrecisionError(f"{source}={quoted(raw)} is not an integer number of digits") from None


def _bind_eps(argv) -> list:
    """Rewrite ``--eps VALUE`` as ``--eps=VALUE``: argparse would take a
    value such as -1e-3 or -inf for an option and refuse it."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--eps" else None
        out.append(tok if value is None else f"--eps={value}")
    return out


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(_bind_eps(sys.argv[1:] if argv is None else argv))
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
