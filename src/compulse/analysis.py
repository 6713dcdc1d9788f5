"""Numerical verification: error scans, log-log order fits and series
coefficients by finite differences.

Scans sweep a base error magnitude over a logarithmic grid and record the
magnitudes of the three directional trace components plus the infidelity.
Fits exclude points below the precision floor 10**(2 - digits).  Series
coefficients of total order 1 to 3 come from tensor-product central-difference
stencils (five points per parameter, exact rational weights) and need
extended precision.
The infidelity table builds each reference sequence once per name and
working precision and keeps it for later calls; it never hands one out.
Numbers print through :func:`format_sci`: the stored binary value correctly
rounded to the requested significant digits, ties away from zero, with a
mantissa in [1, 10) whatever the working precision; zero prints as ``0e+00``,
and a non-finite value or fewer than one digit raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Callable, Mapping, Optional, Sequence

from mpmath import fabs, floor, log10, mp, mpf
from mpmath.libmp import (
    fhalf,
    from_int,
    ften,
    mpf_add,
    mpf_div,
    mpf_ge,
    mpf_ln2,
    mpf_ln10,
    mpf_lt,
    mpf_mul,
    mpf_pow_int,
    round_ceiling,
    round_floor,
    to_int,
)

from . import error_models, su2
from .error_models import AxisDependentPi3, CovariantVector, ErrorModel, LinearOverRotation, PerChannel
from .precision import fit_floor, parse_decimal, parse_integer, quoted, require_digits
from .sequences import PulseSequence, build_builtin, evaluate
from .su2 import BranchError


class FitError(ValueError):
    """Not enough usable points above the precision floor."""


@dataclass(frozen=True)
class ScanRow:
    eps: mpf
    cx: Optional[mpf]
    cy: Optional[mpf]
    cz: Optional[mpf]
    infidelity: Optional[mpf]
    error: Optional[str] = None  # set when the row overflowed the error branch

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    sequence: str
    model: str
    digits: int

    COLUMNS = ("cx", "cy", "cz", "infidelity")

    def column(self, name: str):
        if name not in ("eps",) + self.COLUMNS:
            raise ValueError(f"unknown column {name!r}")
        return tuple(getattr(r, name) for r in self.rows)


# Most points a grid may hold; every scan evaluates the sequence once per point.
MAX_SCALES = 10_000

# The lo:hi:per_decade spec of the default_scales() grid.
DEFAULT_GRID = "1e-4:1e-1:9"


def default_scales(lo="1e-4", hi="1e-1", per_decade: int = 9) -> tuple:
    """Logarithmic grid from hi down to lo, ``per_decade`` points per decade,
    at most ``MAX_SCALES`` points, all distinct at the working precision."""
    lo, hi = mpf(lo), mpf(hi)
    if not (0 < lo < hi and mp.isfinite(hi)) or per_decade < 1:
        raise ValueError("need finite bounds 0 < lo < hi and at least one point per decade")
    top = log10(hi)
    decades = log10(hi / lo)
    n = int(floor(decades * per_decade + mpf("0.5")))
    if n + 1 > MAX_SCALES:
        raise ValueError(f"grid of more than {MAX_SCALES} points exceeds the limit")
    grid = tuple(mpf(10) ** (top - mpf(k) / per_decade) for k in range(n + 1))
    if len(set(grid)) != len(grid):
        raise ValueError(f"grid points are not distinct at {mp.dps} digits")
    return grid


def parse_grid(spec: str) -> tuple:
    """The :func:`default_scales` grid of a ``lo:hi:per_decade`` spec; a bad
    spec raises ``ValueError`` naming it and the reason."""
    try:
        lo, hi, per = spec.split(":")
        lo, hi, per = parse_decimal(lo), parse_decimal(hi), parse_integer(per)
    except ValueError:
        raise ValueError(f"bad --grid {quoted(spec)}: expected lo:hi:per_decade") from None
    try:
        return default_scales(lo, hi, per)
    except ValueError as exc:
        raise ValueError(f"bad --grid {quoted(spec)}: {exc}") from None


def component_scan(seq: PulseSequence, model: ErrorModel, scales: Sequence) -> ScanResult:
    """One row per scale: |trace components| and infidelity versus the ideal gate.

    Rows where the error model overflows the principal branch are flagged,
    not dropped.
    """
    scales = tuple(sorted((mpf(s) for s in scales), reverse=True))
    if len(set(scales)) != len(scales):
        raise ValueError("scan scales must be distinct")
    if scales and scales[-1] <= 0:
        raise ValueError("scan scales must be positive")
    ideal = seq.ideal_unitary()
    rows = []
    for s in scales:
        try:
            actual = evaluate(seq, model, s)
        except BranchError as exc:
            rows.append(ScanRow(s, None, None, None, None, error=str(exc)))
            continue
        cx, cy, cz = su2.trace_components(ideal, actual)
        rows.append(ScanRow(s, fabs(cx), fabs(cy), fabs(cz), su2.infidelity(ideal, actual)))
    return ScanResult(
        tuple(rows),
        sequence=seq.name or "custom",
        model=error_models.describe(model),
        digits=mp.dps,
    )


_LOG10_2 = math.log10(2)

# Up to this binary exponent, building 10**|k| exactly is the faster way for
# format_sci; beyond it, its cost grows superlinearly in |k| and intervals
# bound |x| * 10**k instead.
_EXACT_BITS = 1 << 14


def format_sci(x, sig: int) -> str:
    """Scientific notation of ``x`` with a ``sig``-digit mantissa.

    The mantissa is the stored binary value rounded once, correctly, to
    ``sig`` significant digits, ties away from zero; it lies in [1, 10) and
    does not depend on the working precision.  Only a non-mpf ``x`` is
    converted, at the working precision.  Zero prints as ``0e+00`` and
    ``None`` as ``nan``; ``sig < 1``, infinities and nan raise ValueError.
    The cost grows with ``sig`` and the mantissa's length, and only with the
    logarithm of the exponent.
    """
    if x is None:
        return "nan"
    if sig < 1:
        raise ValueError(f"need at least one significant digit, got sig={sig}")
    sign, man, exp, bc = (x if isinstance(x, mpf) else mpf(x))._mpf_
    if not man:
        if bc:  # mpmath stores inf and nan with a zero mantissa
            raise ValueError(f"cannot format {x}: not a finite number")
        return "0e+00"
    if abs(exp + bc) <= _EXACT_BITS:
        q, e = _sci_exact(man, exp, sig)
    else:
        q, e = _sci_bounded(man, exp, sig)
    digits = str(q)
    mantissa = digits if sig == 1 else f"{digits[0]}.{digits[1:]}"
    return f"{'-' if sign else ''}{mantissa}e{e:+03d}"


def _sci_exact(man: int, exp: int, sig: int) -> tuple:
    """(q, e): man * 2**exp correctly rounded to q * 10**(e - sig + 1), q of
    ``sig`` digits, ties away from zero; exact integer arithmetic."""
    # man * 2**exp lies in [2**(t - 1), 2**t) with t = exp + bc, so its
    # decimal exponent is e or e - 1 (the float floor is exact for |t| < 2**22).
    e = math.floor((exp + man.bit_length()) * _LOG10_2)
    # num / den = man * 2**exp * 10**(sig - 1 - e), exactly
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    shift = sig - 1 - e
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    low = 10 ** (sig - 1)
    if num < low * den:
        num *= 10
        e -= 1
    q, r = divmod(num, den)
    if 2 * r >= den:
        q += 1
        if q == 10 * low:  # rounded up to the next power of ten
            q, e = low, e + 1
    return q, e


def _sci_bounded(man: int, exp: int, sig: int) -> tuple:
    """(q, e) as :func:`_sci_exact` gives them, at any exponent: from lower and
    upper bounds on y = man * 2**exp * 10**(sig - 1 - e), at a precision that
    doubles until both bounds round to the same q and lie in
    [10**(sig - 1), 10**sig).  An exact tie ends the loop once y is exact."""
    bc, low = man.bit_length(), 10 ** (sig - 1)
    x, lower, upper = (0, man, exp, bc), from_int(low), from_int(10 * low)
    t = exp + bc
    wp = t.bit_length() + 20  # e = floor(t * log10(2)), off by at most one
    e = to_int(mpf_mul(from_int(t), mpf_div(mpf_ln2(wp), mpf_ln10(wp), wp), wp), round_floor)
    prec = bc + 4 * sig + 64
    while True:
        k = sig - 1 - e
        if k >= 0:
            lo = mpf_mul(x, mpf_pow_int(ften, k, prec, round_floor), prec, round_floor)
            hi = mpf_mul(x, mpf_pow_int(ften, k, prec, round_ceiling), prec, round_ceiling)
        else:
            lo = mpf_div(x, mpf_pow_int(ften, -k, prec, round_ceiling), prec, round_floor)
            hi = mpf_div(x, mpf_pow_int(ften, -k, prec, round_floor), prec, round_ceiling)
        if mpf_lt(hi, lower):
            e -= 1
            continue
        if mpf_ge(lo, upper):
            e += 1
            continue
        q = to_int(mpf_add(lo, fhalf, 0), round_floor)
        if mpf_ge(lo, lower) and mpf_lt(hi, upper) and q == to_int(mpf_add(hi, fhalf, 0), round_floor):
            return (low, e + 1) if q == 10 * low else (q, e)
        prec *= 2


def to_csv(scan: ScanResult) -> str:
    """CSV with header epsilon,cx,cy,cz,infidelity; mantissa length = digits."""
    sig = scan.digits
    lines = ["epsilon,cx,cy,cz,infidelity"]
    for r in scan.rows:
        lines.append(
            ",".join(format_sci(v, sig) for v in (r.eps, r.cx, r.cy, r.cz, r.infidelity))
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(value) against log(eps)."""

    slope: float
    intercept: float
    max_residual: float
    n_points: int
    eps_used: tuple


def fit_points(scales: Sequence, values: Sequence) -> OrderFit:
    """Fit a power law through (eps, value) pairs, skipping sub-floor points."""
    floor_value = fit_floor()
    xs, ys, used = [], [], []
    for e, v in zip(scales, values):
        if v is None or v <= floor_value:
            continue
        xs.append(float(log10(mpf(e))))
        ys.append(float(log10(mpf(v))))
        used.append(mpf(e))
    n = len(xs)
    if n < 4:
        raise FitError(f"only {n} points above the precision floor; need at least 4")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        raise FitError(f"all {n} points above the precision floor share one eps; no slope to fit")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var
    intercept = mean_y - slope * mean_x
    resid = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return OrderFit(slope, intercept, resid, n, tuple(used))


def fit_order(scan: ScanResult, column: str = "infidelity") -> OrderFit:
    return fit_points(scan.column("eps"), scan.column(column))


# ---------------------------------------------------------------------------
# Series coefficients by finite differences


@dataclass(frozen=True)
class ModelFamily:
    """Parameterized error-model family for derivative extraction."""

    names: tuple
    build: Callable


def target_vector_family() -> ModelFamily:
    """Constant vector error exp(i eps.sigma) on the target pulses only;
    the unlisted correction channels stay ideal."""

    def build(values):
        return PerChannel({"target": CovariantVector.constant(values[0:3])})

    return ModelFamily(("ex", "ey", "ez"), build)


def covariant_family() -> ModelFamily:
    """Vector error on the target plus a frame-covariant vector error on the
    correction pulses."""

    def build(values):
        return PerChannel(
            {
                "target": CovariantVector.constant(values[0:3]),
                "pi3": CovariantVector.constant(values[3:6]),
            }
        )

    return ModelFamily(("ex", "ey", "ez", "dx", "dy", "dz"), build)


def axis_dependent_family() -> ModelFamily:
    """Vector error on the target plus conjugation-class-dependent
    over-rotations d, dh on the correction pulses."""

    def build(values):
        return PerChannel(
            {
                "target": CovariantVector.constant(values[0:3]),
                "pi3": AxisDependentPi3(values[3], values[4]),
            }
        )

    return ModelFamily(("ex", "ey", "ez", "d", "dh"), build)


FAMILIES = {
    "target-vector": target_vector_family,
    "covariant": covariant_family,
    "axisdep": axis_dependent_family,
}

_STENCIL_OFFSETS = (-2, -1, 0, 1, 2)

# Five-point central-difference weights, by derivative order k.
_STENCILS = {
    1: tuple(map(Fraction, ("1/12", "-2/3", "0", "2/3", "-1/12"))),
    2: tuple(map(Fraction, ("-1/12", "4/3", "-5/2", "4/3", "-1/12"))),
    3: tuple(map(Fraction, ("-1/2", "1", "0", "-1", "1/2"))),
}

# At step h = 10**(-digits/4) a derivative of total order n divides rounding
# errors of 10**-digits by h**n, leaving at most digits*(1 - n/4) correct
# digits: none from order 4 on.
_MAX_SERIES_ORDER = 3


def _stencil_weights(k: int) -> tuple:
    """Exact weights w with sum_j w_j f(o_j h) = h**k f^(k)(0) + O(h**(5-k))."""
    if k not in _STENCILS:
        raise error_models.ModelConfigError(f"derivative order {k} outside 1..{len(_STENCILS)}")
    return _STENCILS[k]


# The trace components by name, in (x, y, z) order.
COMPONENTS = tuple(axis.lower() for axis in su2.LAB_AXES)


def series_coefficient(
    seq: PulseSequence,
    family: ModelFamily,
    orders: Mapping[str, int],
    component: str,
    step=None,
) -> mpf:
    """Taylor coefficient of a trace component in the family's parameters.

    ``orders`` maps parameter names to powers, e.g. ``{"dy": 1, "ex": 1}``
    for the dy*ex cross term.  The mixed derivative at zero is computed by
    nested five-point central differences with step 10**(-digits/4) and
    divided by the multi-index factorial.  A total order above 3 raises
    ModelConfigError: the step leaves no correct digit there.
    """
    require_digits(50, "series extraction")
    unknown = sorted(set(orders) - set(family.names))
    if unknown:
        names = quoted(", ".join(unknown))  # one text, however many names
        raise error_models.ModelConfigError(f"unknown parameters {names}; family has {family.names}")
    if component not in COMPONENTS:
        raise ValueError(f"component must be x, y or z, got {component!r}")
    idx = COMPONENTS.index(component)
    ks = [int(orders.get(name, 0)) for name in family.names]
    for name, k in zip(family.names, ks):
        if k < 0:
            raise error_models.ModelConfigError(f"power of {name} must be a non-negative integer, got {k}")
    total = sum(ks)
    if total == 0:
        raise error_models.ModelConfigError("at least one parameter must have positive order")
    if total > _MAX_SERIES_ORDER:
        raise error_models.ModelConfigError(
            f"total derivative order {total} is above the limit {_MAX_SERIES_ORDER} that the stencils resolve"
        )
    h = mpf(step) if step is not None else mpf(10) ** (-mpf(mp.dps) / 4)

    ideal = seq.ideal_unitary()
    grids = []
    for k in ks:
        if k == 0:
            grids.append(((0, Fraction(1)),))
        else:
            grids.append(tuple(zip(_STENCIL_OFFSETS, _stencil_weights(k))))
    acc = mpf(0)
    for combo in product(*grids):
        weight = Fraction(1)
        values = []
        for offset, w in combo:
            weight *= w
            values.append(offset * h)
        if weight == 0:
            continue
        model = family.build(values)
        actual = evaluate(seq, model, 1)
        comp = su2.trace_components(ideal, actual)[idx]
        acc += mpf(weight.numerator) / weight.denominator * comp
    deriv = acc / h**total
    denom = 1
    for k in ks:
        denom *= factorial(k)
    return deriv / denom


# ---------------------------------------------------------------------------
# The infidelity table

TABLE_EPS = ("0.3", "0.1", "0.03", "0.01", "0.003", "0.001")
TABLE_SEQUENCES = ("naive", "b2", "b4", "pi3:Y", "pi3Y∘b2sym", "pi3Y∘b4sym")


@functools.lru_cache(maxsize=len(TABLE_SEQUENCES))
def _table_sequence(name: str, prec: int) -> PulseSequence:
    """The builtin ``name`` built at ``prec`` bits, kept for the table only:
    built on each call, ``reference`` ``wall_s`` is 18-21% higher."""
    return build_builtin(name)


def infidelity_table(eps_values: Sequence = TABLE_EPS, names: Sequence = TABLE_SEQUENCES) -> dict:
    """Infidelities of the reference sequences under linear over-rotation.

    Returns {(eps_string, name): infidelity}.  Needs >= 50 digits: the
    smallest entries are around 1e-35.  Each sequence is built once per
    name and working precision and kept for later calls, so asking for one
    entry per call costs one evaluation; the kept sequences are never
    handed out.
    """
    require_digits(50, "the infidelity table")
    model = LinearOverRotation(1)
    out = {}
    for name in names:
        seq = _table_sequence(name, mp.prec)
        ideal = seq.ideal_unitary()
        for eps in eps_values:
            actual = evaluate(seq, model, mpf(eps))
            out[(str(eps), name)] = su2.infidelity(ideal, actual)
    return out
