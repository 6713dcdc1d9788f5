"""Global working-precision control.

All numeric kernels run on mpmath scalars whose precision is set once per
run, in decimal digits.  Double precision corresponds to 16 digits; the
infidelity table needs 50 or more because the smallest entries sit far
below the double-precision cancellation floor.

Numbers read from text are decimal numerals over ASCII digits, with an
exponent of at most MAX_EXPONENT_DIGITS digits, read at the working
precision by :func:`parse_decimal`, or integer numerals read by
:func:`parse_integer`; Python spellings such as ``3/5`` or ``1_0`` are
refused.  A message that repeats a command-line value or a file token
quotes it through :func:`quoted`, so the message stays short however long
the value.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from mpmath import mp, mpf

DEFAULT_DIGITS = 16
MIN_DIGITS = 16
MAX_DIGITS = 200

ENV_DIGITS = "COMPULSE_DIGITS"


class PrecisionError(ValueError):
    """Requested precision outside the supported range, or too low for an operation."""


def set_digits(digits: int) -> None:
    """Fix the working precision for the rest of the run."""
    if not MIN_DIGITS <= digits <= MAX_DIGITS:
        raise PrecisionError(
            f"precision must lie in [{MIN_DIGITS}, {MAX_DIGITS}] decimal digits, got {quoted(str(digits))}"
        )
    mp.dps = int(digits)


def require_digits(digits: int, what: str) -> None:
    if mp.dps < digits:
        raise PrecisionError(f"{what} needs at least {digits} digits, running at {mp.dps}")


@contextmanager
def working_digits(digits: int):
    """Temporarily switch precision; the caller's ``mp.prec`` comes back exactly."""
    saved = mp.prec
    set_digits(digits)
    try:
        yield
    finally:
        mp.prec = saved


_DECIMAL = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?(\d+))?", re.ASCII)
_INTEGER = re.compile(r"[+-]?\d+", re.ASCII)
_NON_FINITE = ("inf", "+inf", "-inf", "nan")

# Most digits the exponent of a decimal numeral may have.  mpmath reads an
# exponent in time that grows faster than quadratically in its digits: at
# 200 digits of precision, 0.13 ms for 20 exponent digits and 1.7 ms for
# 100; at 16, 17 s for 4,000.
MAX_EXPONENT_DIGITS = 20


def parse_decimal(text: str) -> mpf:
    """The value of a decimal numeral such as ``-0.5``, ``.5`` or ``1E+3``
    at the working precision.

    ``inf``, ``+inf``, ``-inf`` and ``nan`` (in any case) read as themselves,
    so a caller can refuse them by name.  Any other text, such as ``3/5``,
    ``1_0``, non-ASCII digits or an exponent of more than
    MAX_EXPONENT_DIGITS digits, raises ValueError.
    """
    match = _DECIMAL.fullmatch(text)
    if match and len(match[1] or "") > MAX_EXPONENT_DIGITS:
        raise ValueError(f"exponent of more than {MAX_EXPONENT_DIGITS} digits: {quoted(text)}")
    if match or text.lower() in _NON_FINITE:
        return mpf(text)
    raise ValueError(f"not a decimal number: {quoted(text)}")


def parse_integer(text: str) -> int:
    """The value of an optionally signed integer numeral over ASCII digits;
    any other text, such as ``1_0`` or ``1.0``, raises ValueError."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {quoted(text)}")
    return int(text)


def quoted(text: str) -> str:
    """``repr(text)`` for a message, bounded: a text of more than 80
    characters is quoted as its first 40, an ellipsis and its length, so an
    error line stays short whatever it was given."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:40]!r}… ({len(text)} characters)"


def unit_tolerance() -> mpf:
    """Tolerance 10**(3 - digits) of the tests' norm and soundness checks; no
    library code calls it (geometry has one tolerance, su2.GEOMETRY_TOL)."""
    return mpf(10) ** (3 - mp.dps)


def fit_floor() -> mpf:
    """Smallest magnitude trusted by log-log fits, 10**(2 - digits).

    Quaternion products lose relative accuracy through cancellation as
    sequences get longer; the extra guard decade keeps fitted slopes
    unbiased.
    """
    return mpf(10) ** (2 - mp.dps)


set_digits(DEFAULT_DIGITS)
