"""Numerical verification: error scans, log-log order fits, series
coefficients by finite differences, and the in-plane correction-axis search.

Scans sweep a base error magnitude over a logarithmic grid and record the
magnitudes of the three directional trace components plus the infidelity.
Fits exclude points below the precision floor 10**(2 - digits).  Series
coefficients come from tensor-product central-difference stencils (five
points per parameter, exact rational weights) and need extended precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Callable, Mapping, Optional, Sequence

from mpmath import fabs, floor, log10, mp, mpf, nstr, sqrt

from . import error_models, su2
from .error_models import AxisDependentPi3, CovariantVector, ErrorModel, LinearOverRotation, PerChannel
from .precision import fit_floor, require_digits
from .sequences import PulseSequence, build_builtin, evaluate
from .su2 import BranchError


class FitError(ValueError):
    """Not enough usable points above the precision floor."""


class DegenerateDirectionError(ValueError):
    """The xy projection of the error is too small to define a direction."""


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
    perfect_pi3: bool

    COLUMNS = ("cx", "cy", "cz", "infidelity")

    def column(self, name: str):
        if name not in ("eps",) + self.COLUMNS:
            raise ValueError(f"unknown column {name!r}")
        return tuple(getattr(r, name) for r in self.rows)


def default_scales(lo="1e-4", hi="1e-1", per_decade: int = 9) -> tuple:
    """Logarithmic grid from hi down to lo, ``per_decade`` points per decade."""
    lo, hi = mpf(lo), mpf(hi)
    if not (0 < lo < hi) or per_decade < 1:
        raise ValueError("need 0 < lo < hi and at least one point per decade")
    top = log10(hi)
    decades = log10(hi / lo)
    n = int(floor(decades * per_decade + mpf("0.5")))
    return tuple(mpf(10) ** (top - mpf(k) / per_decade) for k in range(n + 1))


def component_scan(
    seq: PulseSequence,
    model: ErrorModel,
    scales: Sequence,
    perfect_pi3: bool = False,
) -> ScanResult:
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
            actual = evaluate(seq, model, s, perfect_pi3)
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
        perfect_pi3=perfect_pi3,
    )


def format_sci(x, sig: int) -> str:
    """Scientific notation with a ``sig``-digit mantissa, deterministic."""
    if x is None:
        return "nan"
    x = mpf(x)
    if x == 0:
        return "0e+00"
    sign = "-" if x < 0 else ""
    a = fabs(x)
    e = int(floor(log10(a)))
    m = a / mpf(10) ** e
    s = nstr(m, sig, strip_zeros=False)
    if mpf(s) >= 10:  # mantissa rounded up to 10.0
        e += 1
        m = a / mpf(10) ** e
        s = nstr(m, sig, strip_zeros=False)
    return f"{sign}{s}e{e:+03d}"


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
    4: tuple(map(Fraction, ("1", "-4", "6", "-4", "1"))),
}


def _stencil_weights(k: int) -> tuple:
    """Exact weights w with sum_j w_j f(o_j h) = h**k f^(k)(0) + O(h**(5-k))."""
    if k not in _STENCILS:
        raise error_models.ModelConfigError(f"derivative order {k} outside 1..{len(_STENCILS)}")
    return _STENCILS[k]


_COMPONENT_INDEX = {"x": 0, "y": 1, "z": 2}


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
    divided by the multi-index factorial.
    """
    require_digits(50, "series extraction")
    unknown = set(orders) - set(family.names)
    if unknown:
        raise error_models.ModelConfigError(f"unknown parameters {sorted(unknown)}; family has {family.names}")
    idx = _COMPONENT_INDEX.get(component)
    if idx is None:
        raise ValueError(f"component must be x, y or z, got {component!r}")
    ks = [int(orders.get(name, 0)) for name in family.names]
    total = sum(ks)
    if total == 0:
        raise error_models.ModelConfigError("at least one parameter must have positive order")
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
# Error-direction search


def xy_error_axis(seq: PulseSequence, model: ErrorModel, probe_scale) -> tuple:
    """Unit axis in the xy plane orthogonal to the xy projection of the
    residual error at ``probe_scale``.

    Correcting about this axis is what raises the order of a compensation
    sequence whose residual error lies mostly in the xy plane.  An exactly
    vanishing projection returns the x axis by convention; a projection
    lost in numerical noise (below ten times the precision floor) raises
    :class:`DegenerateDirectionError`.
    """
    actual = evaluate(seq, model, mpf(probe_scale))
    vec = su2.log_pauli(su2.error_unitary(seq.ideal_unitary(), actual))
    px, py = vec.ex, vec.ey
    if px == 0 and py == 0:
        return (mpf(1), mpf(0), mpf(0))
    n = sqrt(px * px + py * py)
    if n < 10 * fit_floor():
        raise DegenerateDirectionError(
            f"xy error projection {n} is below the trustworthy floor"
        )
    return (-py / n, px / n, mpf(0))


# ---------------------------------------------------------------------------
# The infidelity table

TABLE_EPS = ("0.3", "0.1", "0.03", "0.01", "0.003", "0.001")
TABLE_SEQUENCES = ("naive", "b2", "b4", "pi3:Y", "pi3Y∘b2sym", "pi3Y∘b4sym")


def infidelity_table(eps_values: Sequence = TABLE_EPS, names: Sequence = TABLE_SEQUENCES) -> dict:
    """Infidelities of the reference sequences under linear over-rotation.

    Returns {(eps_string, name): infidelity}.  Needs >= 50 digits: the
    smallest entries are around 1e-35.
    """
    require_digits(50, "the infidelity table")
    model = LinearOverRotation(1)
    out = {}
    for name in names:
        seq = build_builtin(name)
        ideal = seq.ideal_unitary()
        for eps in eps_values:
            actual = evaluate(seq, model, mpf(eps))
            out[(str(eps), name)] = su2.infidelity(ideal, actual)
    return out
