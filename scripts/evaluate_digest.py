#!/usr/bin/env python3
"""Print one SHA-256 over the exact results of a fixed evaluation matrix.

The hash covers ``repr(evaluate(...))`` for every builtin plus two
``concat:`` chains, on three targets, under five error models, at three
error scales, both as built and after a text round trip, at 16 and 60
digits and for a 16-digit build evaluated at 60.  It also covers the
60-digit infidelity table and three series coefficients.  Two checkouts
that print the same hash give bit-identical results on all of them, which
is how a change meant to be a pure speed-up shows that it is one.

Usage: evaluate_digest.py
"""

import hashlib
import sys
from itertools import product

from mpmath import mpf

from compulse import analysis
from compulse.error_models import parse_model
from compulse.precision import working_digits
from compulse.sequences import BUILTIN_NAMES, SequenceError, build_builtin, evaluate, parse, parse_target, serialize
from compulse.su2 import BranchError

NAMES = BUILTIN_NAMES + ("concat:XYZXY", "concat:ZZY:b2sym")
TARGETS = ("x-pi", "z-pi", "y-3pi/4")
MODELS = (
    "model=linear eps=0.01",
    "model=poly coeffs=0,0.01,0.003 y=0,0.02 -x=0.001",
    "model=vector dx=0.01;dy=-0.004,0.002;dz=0.003",
    "model=axisdep delta=0.01 deltahat=0.02",
    "model=channels target{linear eps=0.1} pi3{axisdep delta=0.01 deltahat=0.02}",
)
SCALES = ("1", "0.1", "1e-3")

# (family, orders, component): one coefficient of pi3:X around z-pi per family
SERIES = (
    ("target-vector", {"ex": 1}, "x"),
    ("covariant", {"dy": 1, "ex": 1}, "y"),
    ("axisdep", {"d": 1, "ey": 1}, "y"),
)


def digest(names, models, digits) -> str:
    """SHA-256 over ``repr(evaluate(...))`` for ``names`` x TARGETS x
    ``models`` x SCALES, for the built sequence and its parsed text.

    Each sequence is built and written at one of ``digits`` and evaluated
    at that and every larger one.  Builtins that reject a target are
    skipped; an evaluation that raises hashes as the exception's repr.
    """
    h = hashlib.sha256()
    for build_digits, name, target in product(sorted(digits), names, TARGETS):
        with working_digits(build_digits):
            try:
                seq = build_builtin(name, parse_target(target))
            except SequenceError:  # the b family corrects rotations about x only
                continue
            text = serialize(seq)
        for eval_digits in sorted(d for d in digits if d >= build_digits):
            with working_digits(eval_digits):
                parsed = [parse_model(config) for config in models]
                for s, model, scale in product((seq, parse(text)), parsed, SCALES):
                    try:
                        result = evaluate(s, model, mpf(scale))
                    except BranchError as exc:
                        result = exc
                    h.update(repr(result).encode())
    return h.hexdigest()


def main() -> int:
    h = hashlib.sha256(digest(NAMES, MODELS, (16, 60)).encode())
    with working_digits(60):
        h.update(repr(sorted(analysis.infidelity_table().items())).encode())
        seq = build_builtin("pi3:X", parse_target("z-pi"))
        for family, orders, component in SERIES:
            coefficient = analysis.series_coefficient(seq, analysis.FAMILIES[family](), orders, component)
            h.update(repr(coefficient).encode())
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
