#!/usr/bin/env python3
"""Scan the reference sequences over a log grid and fit their error orders.

Writes one CSV per sequence (epsilon, trace components, infidelity) into an
output directory and prints the fitted infidelity slopes.  Piping the CSVs
into any plotter reproduces the infidelity-versus-epsilon comparison of the
naive, compensated, and concatenated pulses.

Usage: order_scaling.py [outdir] [--digits N] [--grid lo:hi:per_decade]
"""

import argparse
import pathlib

from compulse.analysis import TABLE_SEQUENCES, component_scan, default_scales, fit_order, to_csv
from compulse.error_models import LinearOverRotation
from compulse.precision import set_digits
from compulse.sequences import build_builtin

SAFE_NAMES = {"pi3:Y": "pi3Y", "pi3Y∘b2sym": "pi3Y-b2sym", "pi3Y∘b4sym": "pi3Y-b4sym"}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outdir", nargs="?", default="scans")
    ap.add_argument("--digits", type=int, default=60)
    ap.add_argument("--grid", default="1e-4:1e-1:9")
    args = ap.parse_args()

    set_digits(args.digits)
    lo, hi, per = args.grid.split(":")
    grid = default_scales(lo, hi, int(per))
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    model = LinearOverRotation(1)
    for name in TABLE_SEQUENCES:
        scan = component_scan(build_builtin(name), model, grid)
        path = outdir / (SAFE_NAMES.get(name, name) + ".csv")
        path.write_text(to_csv(scan), encoding="utf-8")
        fit = fit_order(scan)
        print(f"{name:<12} slope {fit.slope:7.3f}  max residual {fit.max_residual:.2e}  -> {path}")


if __name__ == "__main__":
    main()
