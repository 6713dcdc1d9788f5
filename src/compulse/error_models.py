"""Systematic control-error families and how they corrupt pulses.

Every family is invertible in the systematic sense: attempting the inverse
pulse applies the exact dagger of the corrupted forward pulse.  The base
class realizes a dagger-role pulse as the dagger of its forward partner
(same axis, negated generator angle), so subclasses only describe the
forward corruption.

Over-rotation amounts are functions of the unsigned rotation angle
``theta = 2*|alpha|`` (polynomials here, degree-bounded for
reproducibility); the generator offset is ``eps(theta)/2`` with the sign
of the generator.  Vector-type errors right-multiply the ideal pulse by
``exp(i*(F.delta).sigma)`` where F is the pulse's frame triad, which makes
a conjugated pulse carry the conjugated error automatically.

Config strings (see :func:`parse_model`)::

    model=linear eps=0.01
    model=poly coeffs=0,0.01,0.003
    model=vector dx=0.01;dy=0;dz=0
    model=axisdep delta=0.01 deltahat=0.02

Unknown keys are errors.  All coefficients must stay below 0.5 at parse
time; programmatic construction is unrestricted so scans can use unit
coefficients with a separate scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Tuple

from mpmath import fabs, mp, mpf, nstr

from . import su2
from .precision import unit_tolerance
from .su2 import GEOMETRY_TOL, BranchError, Unitary, Vec3

if TYPE_CHECKING:
    from .sequences import Pulse

Coeffs = Tuple[mpf, ...]

NAMED_AXES = {k.lower(): v for k, v in su2.LAB_AXES.items()}
NAMED_AXES.update({"-" + k: tuple(-c for c in v) for k, v in NAMED_AXES.items()})

class ModelConfigError(ValueError):
    """Malformed or out-of-range error-model configuration."""


def _as_coeffs(coeffs) -> Coeffs:
    if isinstance(coeffs, (int, float, str, mpf)):
        coeffs = (coeffs,)
    return tuple(mpf(c) for c in coeffs)


def _poly_eval(coeffs: Coeffs, theta: mpf) -> mpf:
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * theta + c
    return acc


def _check_branch(offset: mpf) -> None:
    # Vector-type error generators must stay on the principal branch so that
    # log-based analysis can invert them.  Over-rotations are exempt: a
    # rotation by (1+eps)*theta is well-defined for any offset, and the
    # infidelity table needs offsets beyond pi/2 at its largest eps.
    if fabs(offset) >= mp.pi / 2:
        raise BranchError(f"error generator {offset} reaches pi/2: outside principal branch")


@dataclass(frozen=True)
class ErrorModel:
    """Base class; subclasses implement `_forward` on non-dagger pulses."""

    def realize(self, pulse: "Pulse", scale=1) -> Unitary:
        """The corrupted unitary actually applied for ``pulse``.

        ``scale`` multiplies every model coefficient, so scans can sweep a
        base error magnitude with the model shape fixed.
        """
        axis, alpha = pulse.unit_axis(), pulse.alpha()
        if pulse.role.is_dagger:
            return su2.dagger(self._forward(pulse, axis, -alpha, mpf(scale)))
        return self._forward(pulse, axis, alpha, mpf(scale))

    def _forward(self, pulse: "Pulse", axis: Vec3, alpha: mpf, scale: mpf) -> Unitary:
        """Corrupted forward pulse: ``axis`` is the unit lab axis and
        ``alpha`` the forward generator angle (negated for dagger roles)."""
        raise NotImplementedError


def _over_rotated(axis: Vec3, alpha: mpf, offset: mpf) -> Unitary:
    """exp(i*(|alpha| + offset)*sign(alpha)*(axis.sigma))."""
    mag = fabs(alpha) + offset
    g = mag if alpha >= 0 else -mag
    return su2.rotation(axis, g)


@dataclass(frozen=True)
class LinearOverRotation(ErrorModel):
    """eps(theta) = eps * theta: rotation angles scale by (1 + eps)."""

    eps: mpf

    def __post_init__(self):
        object.__setattr__(self, "eps", mpf(self.eps))

    def _forward(self, pulse, axis, alpha, scale):
        return _over_rotated(axis, alpha, self.eps * scale * fabs(alpha))


@dataclass(frozen=True)
class PolyOverRotation(ErrorModel):
    """eps(theta) = sum_k coeffs[k] * theta**k, angle-dependent, axis-independent."""

    coeffs: Coeffs

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    def _forward(self, pulse, axis, alpha, scale):
        theta = 2 * fabs(alpha)
        return _over_rotated(axis, alpha, scale * _poly_eval(self.coeffs, theta) / 2)


@dataclass(frozen=True)
class AxisOverRotation(ErrorModel):
    """Over-rotation depending on both angle and (named) rotation axis.

    ``per_axis`` maps axis names ("x", "-y", ...) to coefficient tuples;
    pulses about unnamed axes fall back to ``base``.
    """

    base: Coeffs
    per_axis: Mapping[str, Coeffs]

    def __post_init__(self):
        object.__setattr__(self, "base", _as_coeffs(self.base))
        fixed = {}
        for key, coeffs in self.per_axis.items():
            if key not in NAMED_AXES:
                raise ModelConfigError(f"unknown axis name {key!r}")
            fixed[key] = _as_coeffs(coeffs)
        object.__setattr__(self, "per_axis", fixed)

    def _coeffs_for(self, axis: Vec3, alpha: mpf) -> Coeffs:
        if alpha < 0:
            axis = tuple(-c for c in axis)
        for key, coeffs in self.per_axis.items():
            ref = NAMED_AXES[key]
            if all(fabs(a - b) <= GEOMETRY_TOL for a, b in zip(axis, ref)):
                return coeffs
        return self.base

    def _forward(self, pulse, axis, alpha, scale):
        theta = 2 * fabs(alpha)
        coeffs = self._coeffs_for(axis, alpha)
        return _over_rotated(axis, alpha, scale * _poly_eval(coeffs, theta) / 2)


@dataclass(frozen=True)
class CovariantVector(ErrorModel):
    """actual = ideal * exp(i*(F.delta(theta)).sigma) with F the pulse frame.

    ``dx, dy, dz`` are polynomial coefficient tuples in the rotation angle.
    Because the error generator is expressed in the pulse's own frame, a
    pulse conjugated by U (frame = U-transform) automatically carries the
    U-conjugated error.
    """

    dx: Coeffs
    dy: Coeffs
    dz: Coeffs

    def __post_init__(self):
        for name in ("dx", "dy", "dz"):
            object.__setattr__(self, name, _as_coeffs(getattr(self, name)))

    @staticmethod
    def constant(vec) -> "CovariantVector":
        v = su2.as_vec3(vec)
        return CovariantVector((v[0],), (v[1],), (v[2],))

    def _forward(self, pulse, axis, alpha, scale):
        theta = 2 * fabs(alpha)
        delta = (
            scale * _poly_eval(self.dx, theta),
            scale * _poly_eval(self.dy, theta),
            scale * _poly_eval(self.dz, theta),
        )
        lab = pulse.frame.map(delta)
        _check_branch(su2.vec_norm(lab))
        return su2.multiply(su2.rotation(axis, alpha), su2.exp_pauli(lab))


@dataclass(frozen=True)
class AxisDependentPi3(ErrorModel):
    """Additive over-rotation of correction pulses only, different for the
    two conjugation classes: ``delta`` on unconjugated ("pi3" channel,
    identity frame) pulses and ``delta_hat`` on conjugated ones.  Target
    pulses pass through ideal; combine with another model via
    :class:`PerChannel` for mixed simulations.
    """

    delta: mpf
    delta_hat: mpf

    def __post_init__(self):
        object.__setattr__(self, "delta", mpf(self.delta))
        object.__setattr__(self, "delta_hat", mpf(self.delta_hat))

    def _forward(self, pulse, axis, alpha, scale):
        if pulse.channel != "pi3":
            return su2.rotation(axis, alpha)
        d = self.delta if pulse.frame.is_identity() else self.delta_hat
        return _over_rotated(axis, alpha, scale * d)


@dataclass(frozen=True)
class PerChannel(ErrorModel):
    """Compose different models per channel; unlisted channels stay ideal."""

    models: Mapping[str, ErrorModel]

    def realize(self, pulse, scale=1):
        model = self.models.get(pulse.channel)
        if model is None:
            return pulse.ideal_unitary()
        return model.realize(pulse, scale)


def invert_model_consistency(model: ErrorModel, pulse: "Pulse") -> bool:
    """Check realize(inverse pulse) == dagger(realize(pulse)) within the
    working-precision tolerance."""
    inv = model.realize(pulse.daggered())
    dag = su2.dagger(model.realize(pulse))
    tol = unit_tolerance()
    return all(fabs(a - b) <= tol for a, b in zip(inv, dag))


def describe(model: Optional[ErrorModel]) -> str:
    """Short deterministic label used in scan metadata."""

    def num(x):
        return nstr(mpf(x), 8, strip_zeros=True)

    def poly(coeffs):
        return ",".join(num(c) for c in coeffs)

    if model is None:
        return "none"
    if isinstance(model, LinearOverRotation):
        return f"linear eps={num(model.eps)}"
    if isinstance(model, PolyOverRotation):
        return f"poly coeffs={poly(model.coeffs)}"
    if isinstance(model, AxisOverRotation):
        named = " ".join(f"{k}={poly(v)}" for k, v in sorted(model.per_axis.items()))
        return f"axispoly base={poly(model.base)} {named}".strip()
    if isinstance(model, CovariantVector):
        return f"vector dx={poly(model.dx)};dy={poly(model.dy)};dz={poly(model.dz)}"
    if isinstance(model, AxisDependentPi3):
        return f"axisdep delta={num(model.delta)} deltahat={num(model.delta_hat)}"
    if isinstance(model, PerChannel):
        inner = " | ".join(f"{ch}: {describe(m)}" for ch, m in sorted(model.models.items()))
        return f"channels[{inner}]"
    return type(model).__name__


# ---------------------------------------------------------------------------
# Config parsing

_COEFF_BOUND = mpf("0.5")


def _parse_number(text: str, key: str) -> mpf:
    try:
        val = mpf(text)
    except ValueError:
        raise ModelConfigError(f"bad number {text!r} for {key}") from None
    if not mp.isfinite(val):
        raise ModelConfigError(f"non-finite value for {key}")
    return val


def _parse_coeff_list(text: str, key: str) -> Coeffs:
    return tuple(_parse_number(part, key) for part in text.split(","))


def _check_bound(values, key: str) -> None:
    for v in values:
        if fabs(v) >= _COEFF_BOUND:
            raise ModelConfigError(f"coefficient {v} for {key} not small (|.| < 0.5 required)")


def parse_model(text: str) -> ErrorModel:
    """Parse a model config string (grammar in the module docstring)."""
    pairs = []
    for token in text.split():
        for piece in token.split(";"):
            if not piece:
                continue
            if "=" not in piece:
                raise ModelConfigError(f"expected key=value, got {piece!r}")
            key, _, value = piece.partition("=")
            pairs.append((key.strip(), value.strip()))
    if not pairs or pairs[0][0] != "model":
        raise ModelConfigError("config must start with model=<kind>")
    kind = pairs[0][1]
    kv = {}
    for key, value in pairs[1:]:
        if key in kv:
            raise ModelConfigError(f"duplicate key {key!r}")
        kv[key] = value

    def take(key, default=None):
        if key in kv:
            return kv.pop(key)
        if default is None:
            raise ModelConfigError(f"model={kind} requires {key}=")
        return default

    if kind == "linear":
        eps = _parse_number(take("eps"), "eps")
        _check_bound((eps,), "eps")
        model = LinearOverRotation(eps)
    elif kind == "poly":
        coeffs = _parse_coeff_list(take("coeffs"), "coeffs")
        _check_bound(coeffs, "coeffs")
        model = PolyOverRotation(coeffs)
    elif kind == "vector":
        parts = {}
        for key in ("dx", "dy", "dz"):
            parts[key] = _parse_coeff_list(take(key, "0"), key)
            _check_bound(parts[key], key)
        model = CovariantVector(parts["dx"], parts["dy"], parts["dz"])
    elif kind == "axisdep":
        delta = _parse_number(take("delta"), "delta")
        delta_hat = _parse_number(take("deltahat"), "deltahat")
        _check_bound((delta, delta_hat), "delta/deltahat")
        if delta != 0 and delta_hat != 0:
            ratio = fabs(delta_hat / delta)
            if not (mpf("0.1") <= ratio <= 10):
                raise ModelConfigError(
                    f"deltahat/delta ratio {ratio} outside [0.1, 10]: the two over-rotations "
                    "must be of the same order"
                )
        model = AxisDependentPi3(delta, delta_hat)
    else:
        raise ModelConfigError(f"unknown model kind {kind!r}")
    if kv:
        raise ModelConfigError(f"unknown keys for model={kind}: {', '.join(sorted(kv))}")
    return model
