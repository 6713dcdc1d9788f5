#!/usr/bin/env python3
"""Print SHA-256 hashes over the exact results of a fixed evaluation matrix.

The matrix covers ``repr(evaluate(...))`` for every builtin plus two
``concat:`` chains, on three targets, under five error models, at three
error scales, both as built and after a text round trip, at 16 and 60
digits and for a 16-digit build evaluated at 60.  It also covers
``pi3_correct`` applied at 60 digits, about each lab axis, to those
sequences built at 16 digits on the target pulses of x-pi, z-pi and a
tilted axis, and the 60-digit infidelity table and four series
coefficients.

One labelled hash is printed per part of the matrix (see PARTS), and the
hash over all of it on the last line.  Two checkouts that print the same
last line give bit-identical results on all of them, which is how a change
meant to be a pure speed-up shows that it is one; the part lines show
which results a change that alters bits on purpose touched.

Usage: evaluate_digest.py
"""

import hashlib
import sys
from fractions import Fraction
from itertools import product

from mpmath import mpf

from compulse import analysis
from compulse.error_models import parse_model
from compulse.precision import working_digits
from compulse.sequences import (
    BUILTIN_NAMES,
    SequenceError,
    build_builtin,
    evaluate,
    parse,
    parse_target,
    pi3_correct,
    serialize,
    target_pulse,
)
from compulse.su2 import LAB_AXES, BranchError

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

# (family, orders, component): coefficients of pi3:X around z-pi.  The
# second changes the target channel's model at every stencil point.
SERIES = (
    ("target-vector", {"ex": 1}, "x"),
    ("target-vector", {"ey": 1, "ez": 2}, "y"),
    ("covariant", {"dy": 1, "ex": 1}, "y"),
    ("axisdep", {"d": 1, "ey": 1}, "y"),
)


# (build digits, evaluation digits) of each part of digest(NAMES, MODELS,
# (16, 60)), and the labels that main prints for it and the other parts
PARTS = {
    (16, 16): "built, written and evaluated at 16 digits",
    (60, 60): "built, written and evaluated at 60 digits",
    (16, 60): "built and written at 16 digits, evaluated at 60",
    "wrapped": "pi3_correct at 60 digits around 16-digit builds",
    "table": "60-digit infidelity table and series coefficients",
}


def digest(names, models, digits) -> str:
    """SHA-256 over ``repr(evaluate(...))`` for ``names`` x TARGETS x
    ``models`` x SCALES, for the built sequence and its parsed text.

    Each sequence is built and written at one of ``digits`` and evaluated
    at that and every larger one.  Builtins that reject a target are
    skipped; an evaluation that raises hashes as the exception's repr.
    """
    h = hashlib.sha256()
    for _, result in _evaluations(names, models, digits):
        h.update(result)
    return h.hexdigest()


def _evaluations(names, models, digits):
    """((build digits, evaluation digits), result) for each result that
    :func:`digest` hashes, in its order."""
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
                for s in (seq, parse(text)):
                    for result in _results(s, parsed):
                        yield (build_digits, eval_digits), result


def _results(seq, models):
    """``repr`` of ``evaluate(seq, ...)`` for each of ``models`` x SCALES;
    an evaluation that raises gives the exception's repr."""
    for model, scale in product(models, SCALES):
        try:
            result = evaluate(seq, model, mpf(scale))
        except BranchError as exc:
            result = exc
        yield repr(result).encode()


def wrapped_digest(names, models) -> str:
    """SHA-256 over ``repr(evaluate(...))`` of ``pi3_correct`` applied at 60
    digits, about each lab axis, to ``names`` built at 16 digits on the
    target pulses of x-pi, z-pi and a rotation by 2pi/3 about the tilted
    axis (2, 1, 2)/3, under ``models`` x SCALES.

    The correction makes the daggers of the 16-digit inner pulses at 60
    digits.  Builtins that reject a target are skipped.
    """
    h = hashlib.sha256()
    with working_digits(16):
        tilted = target_pulse((mpf(2) / 3, mpf(1) / 3, mpf(2) / 3), Fraction(1, 3))
        targets = (parse_target("x-pi"), parse_target("z-pi"), tilted)
    for name, target in product(names, targets):
        with working_digits(16):
            try:
                inner = build_builtin(name, target)
            except SequenceError:  # the b family corrects rotations about x only
                continue
        with working_digits(60):
            parsed = [parse_model(config) for config in models]
            for axis in LAB_AXES.values():
                for result in _results(pi3_correct(inner, axis), parsed):
                    h.update(result)
    return h.hexdigest()


def _table_results():
    """``repr`` of the 60-digit infidelity table and of each SERIES coefficient."""
    with working_digits(60):
        yield repr(sorted(analysis.infidelity_table().items())).encode()
        seq = build_builtin("pi3:X", parse_target("z-pi"))
        for family, orders, component in SERIES:
            coefficient = analysis.series_coefficient(seq, analysis.FAMILIES[family](), orders, component)
            yield repr(coefficient).encode()


def main() -> int:
    parts = {key: hashlib.sha256() for key in PARTS}
    mixed = hashlib.sha256()  # equals digest(NAMES, MODELS, (16, 60))
    for key, result in _evaluations(NAMES, MODELS, (16, 60)):
        parts[key].update(result)
        mixed.update(result)
    # The whole matrix: the mixed digest, then what the last two parts hash.
    whole = hashlib.sha256(mixed.hexdigest().encode())
    rest = [("wrapped", wrapped_digest(NAMES, MODELS).encode())] + [("table", r) for r in _table_results()]
    for key, data in rest:
        parts[key].update(data)
        whole.update(data)
    for key, label in PARTS.items():
        print(f"{parts[key].hexdigest()}  {label}")
    print(whole.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
