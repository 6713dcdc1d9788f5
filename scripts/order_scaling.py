#!/usr/bin/env python3
"""Scan the reference sequences over a log grid and fit their error orders.

Writes one CSV per sequence (epsilon, trace components, infidelity) into an
output directory and prints the fitted infidelity slopes.  Piping the CSVs
into any plotter reproduces the infidelity-versus-epsilon comparison of the
naive, compensated, and concatenated pulses.  A sequence with too few
points above the precision floor reports why on its line; its CSV is still
written, and the script exits 1 at the end.

Usage: order_scaling.py [outdir] [--digits N] [--grid lo:hi:per_decade]
"""

import argparse
import pathlib
import sys

from compulse.analysis import DEFAULT_GRID, TABLE_SEQUENCES, FitError, component_scan, fit_order, parse_grid, to_csv
from compulse.error_models import LinearOverRotation
from compulse.precision import parse_integer, set_digits
from compulse.sequences import build_builtin


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outdir", nargs="?", default="scans")
    ap.add_argument("--digits", default="60")
    ap.add_argument("--grid", default=DEFAULT_GRID)
    args = ap.parse_args()

    try:
        set_digits(parse_integer(args.digits))
    except ValueError as exc:  # a PrecisionError included
        ap.error(f"--digits: {exc}")
    try:
        grid = parse_grid(args.grid)
    except ValueError as exc:
        ap.error(str(exc))
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    model = LinearOverRotation(1)
    failed = False
    for name in TABLE_SEQUENCES:
        scan = component_scan(build_builtin(name), model, grid)
        path = outdir / (name.replace(":", "").replace("∘", "-") + ".csv")
        path.write_text(to_csv(scan), encoding="utf-8")
        try:
            fit = fit_order(scan)
        except FitError as exc:
            failed = True
            print(f"{name:<12} no fit: {exc}  -> {path}")
            continue
        print(f"{name:<12} slope {fit.slope:7.3f}  max residual {fit.max_residual:.2e}  -> {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
