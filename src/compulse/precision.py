"""Global working-precision control.

All numeric kernels run on mpmath scalars whose precision is set once per
run, in decimal digits.  Double precision corresponds to 16 digits; the
infidelity table needs 50 or more because the smallest entries sit far
below the double-precision cancellation floor.
"""

from __future__ import annotations

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
            f"precision must lie in [{MIN_DIGITS}, {MAX_DIGITS}] decimal digits, got {digits}"
        )
    mp.dps = int(digits)


def require_digits(digits: int, what: str) -> None:
    if mp.dps < digits:
        raise PrecisionError(f"{what} needs at least {digits} digits, running at {mp.dps}")


@contextmanager
def working_digits(digits: int):
    """Temporarily switch precision (mainly for tests and oracles)."""
    saved = mp.dps
    set_digits(digits)
    try:
        yield
    finally:
        mp.dps = saved


_UNIT_TOLERANCE = {}  # mp.prec -> 10**(3 - digits) rounded at that precision


def unit_tolerance() -> mpf:
    """Tolerance 10**(3 - digits) for norm and soundness checks."""
    tol = _UNIT_TOLERANCE.get(mp.prec)
    if tol is None:
        tol = _UNIT_TOLERANCE[mp.prec] = mpf(10) ** (3 - mp.dps)
    return tol


def fit_floor() -> mpf:
    """Smallest magnitude trusted by log-log fits, 10**(2 - digits).

    Quaternion products lose relative accuracy through cancellation as
    sequences get longer; the extra guard decade keeps fitted slopes
    unbiased.
    """
    return mpf(10) ** (2 - mp.dps)


set_digits(DEFAULT_DIGITS)
