"""Systematic control-error families and how they corrupt pulses.

Every family is invertible in the systematic sense: attempting the inverse
pulse applies the exact dagger of the corrupted forward pulse.  The base
class holds that rule in one place: it realizes a dagger-role pulse as
``su2.dagger`` of the realization of its partner ``pulse.daggered()``
(same frame and axis bits, negated generator angle), so subclasses only
describe the corruption of forward pulses.  Each kind declares in
``CHANNELS`` which channels it corrupts, and the base class keeps a pulse
on any other channel at its ideal unitary.  Each pulse keeps its last
realization, which a later call reuses when its model and scale are equal
values (not only the same objects), so a dagger pair is corrupted once per
model and scale value, and consecutive evaluations under models that agree
on a channel share that channel's corruptions.

Over-rotation amounts are functions of the unsigned rotation angle
``theta = 2*|alpha|`` (polynomials here, degree-bounded for
reproducibility); the generator offset is ``eps(theta)/2`` with the sign
of the generator.  An over-rotated pulse is ``su2.rotation`` of its
radians plus the offset, except that a zero offset gives the ideal unitary
itself, so every kind at zero error evaluates to the ideal bit for bit.
Vector-type errors right-multiply the ideal pulse by
``exp(i*(F.delta).sigma)`` where F is the pulse's frame at the working
precision, which makes a conjugated pulse carry the conjugated error.
Either way a forward pulse is realized as ideal * exp(i*(g.sigma)), and
:meth:`ErrorModel.generator` gives its lab error generator g, from the
same statement of the kind's error that ``realize`` reads.

Config strings (see :func:`parse_model`)::

    model=linear eps=0.01
    model=poly coeffs=0,0.01,0.003 y=0,0.02 -x=0.001
    model=vector dx=0.01;dy=0;dz=0
    model=axisdep delta=0.01 deltahat=0.02
    model=channels target{linear eps=0.1} pi3{axisdep delta=0.01 deltahat=0.02}

``poly`` takes optional per-axis polynomials under the named-axis keys
``x= -x= y= -y= z= -z=``; pulses about other axes use ``coeffs``.  The
``vector`` keys default to 0.  Unknown or repeated keys are errors.  All
coefficients must stay below 0.5 at parse time; programmatic construction
is unrestricted so scans can use unit coefficients with a separate scale.

``channels`` is a :class:`PerChannel`: a ``target`` and a ``pi3`` block,
each optional, hold another kind's text without ``model=``.  Unlisted
channels stay ideal.  Blocks do not nest, and no text may stand outside.

:func:`describe` prints this text without the ``model=`` prefix, each
number exact at the working precision and channel blocks in sorted
order, so it parses back to an equal model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Tuple

from mpmath import fabs, mp, mpf, nstr

from . import su2
from .precision import parse_decimal, quoted
from .precision import unit_tolerance  # noqa: F401 -- benchmarks/test_tracer.py checks this alias
from .su2 import NAMED_AXES, Unitary, Vec3

if TYPE_CHECKING:
    from .sequences import Pulse

Coeffs = Tuple[mpf, ...]

class ModelConfigError(ValueError):
    """Malformed or out-of-range error-model configuration."""


def _as_coeffs(coeffs, name: str) -> Coeffs:
    """``coeffs`` (one number or a non-empty sequence) as a tuple of mpf;
    ``name`` is the config key it came from."""
    if isinstance(coeffs, (int, float, str, mpf)):
        coeffs = (coeffs,)
    coeffs = tuple(mpf(c) for c in coeffs)
    if not coeffs:
        raise ModelConfigError(f"{name} needs at least one coefficient")
    return coeffs


def _poly_eval(coeffs: Coeffs, theta: mpf) -> mpf:
    """sum_k coeffs[k] * theta**k by Horner's rule."""
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * theta + c
    return acc


@dataclass(frozen=True)
class ErrorModel:
    """Base class; subclasses implement `_forward` on non-dagger pulses."""

    CHANNELS = ("target", "pi3")  # the channels a kind corrupts; others stay ideal

    def realize(self, pulse: "Pulse", scale=1) -> Unitary:
        """The corrupted unitary actually applied for ``pulse``.

        ``scale`` multiplies every model coefficient, so scans can sweep a
        base error magnitude with the model shape fixed.

        A pulse on a channel outside the kind's ``CHANNELS`` stays ideal.
        Any other forward pulse is corrupted by ``_forward``; a dagger pulse
        gets the exact dagger of its forward partner's realization.  The
        pulse's per-precision record (see :meth:`Pulse.derived`) keeps the
        last realization, ideal or not, and a call whose model and
        ``scale`` equal the kept ones as values returns the stored unitary.
        Models are immutable values and ``scale`` enters only as
        ``mpf(scale)``, so equal values fix the result.  A call with the
        very same two objects is answered here (without that, ``deep_chain``
        ``wall_s`` is 1-5% higher); any other goes through the record.  A
        change of precision drops the record and the realization with it.
        """
        record = pulse._record
        if record is not None and record.prec == mp.prec:
            kept = record.realized
            if kept is not None and kept[0] is self and kept[1] is scale:
                return kept[2]
        return self._realized(pulse, scale)

    def _realized(self, pulse: "Pulse", scale) -> Unitary:
        # The rule behind realize; a dagger pulse recurses here, not through
        # realize, so each pulse still costs one realize call.  A value hit
        # keeps the new objects, so the next identical call stops in realize;
        # without value hits ``reference`` ``wall_s`` is 29-40% higher.
        record = pulse.derived()
        kept = record.realized
        if kept is not None and (kept[0] is self or kept[0] == self) and (kept[1] is scale or kept[1] == scale):
            u = kept[2]
        elif pulse.channel not in self.CHANNELS:
            u = pulse.ideal_unitary()
        elif pulse.role.is_dagger:
            u = su2.dagger(self._realized(pulse.daggered(), scale))
        else:
            u = self._forward(pulse, record.axis, record.alpha, mpf(scale))
        record.realized = (self, scale, u)
        return u

    def _forward(self, pulse: "Pulse", axis: Vec3, alpha: mpf, scale: mpf) -> Unitary:
        """Corrupted forward ``pulse``: ``axis`` is its unit lab axis and
        ``alpha`` its generator angle in radians."""
        raise NotImplementedError

    def generator(self, pulse: "Pulse") -> Vec3:
        """The lab error generator g of the forward ``pulse`` at scale 1:
        ``realize(pulse)`` is ideal * exp(i*(g.sigma)) in exact arithmetic.
        A pulse on a channel outside ``CHANNELS`` has g = 0.  Each kind
        states its error once, and both this and ``realize`` read it."""
        if pulse.channel not in self.CHANNELS:
            return _ZERO
        record = pulse.derived()
        return self._lab_generator(pulse, record.axis, record.alpha)

    def _lab_generator(self, pulse: "Pulse", axis: Vec3, alpha: mpf) -> Vec3:
        """:meth:`generator` of a forward ``pulse`` on a corrupted channel."""
        raise NotImplementedError


_ZERO = (mpf(0), mpf(0), mpf(0))


class _OverRotation(ErrorModel):
    """A kind that rotates a pulse about its own axis by ``_offset`` more
    generator angle, with the sign of the generator."""

    def _offset(self, pulse: "Pulse", axis: Vec3, alpha: mpf, scale: mpf) -> mpf:
        raise NotImplementedError

    def _forward(self, pulse, axis, alpha, scale):
        # exp(i*(|alpha| + offset)*sign(alpha)*(axis.sigma)); a zero offset
        # is ideal * exp(i*0), the ideal bit for bit
        offset = self._offset(pulse, axis, alpha, scale)
        if not offset:
            return pulse.ideal_unitary()
        mag = fabs(alpha) + offset
        return su2.rotation(axis, mag if alpha >= 0 else -mag)

    def _lab_generator(self, pulse, axis, alpha):
        # Rotations about one axis commute, so the over-rotated pulse is
        # ideal * exp(i*(sign(alpha)*offset)*(axis.sigma)).
        d = self._offset(pulse, axis, alpha, mpf(1))
        d = d if alpha >= 0 else -d
        return tuple(d * c for c in axis)


@dataclass(frozen=True)
class LinearOverRotation(_OverRotation):
    """eps(theta) = eps * theta: rotation angles scale by (1 + eps)."""

    eps: mpf

    def __post_init__(self):
        object.__setattr__(self, "eps", mpf(self.eps))

    def _offset(self, pulse, axis, alpha, scale):
        return self.eps * scale * fabs(alpha)


@dataclass(frozen=True)
class AxisOverRotation(_OverRotation):
    """eps(theta) = sum_k coeffs[k] * theta**k, optionally per named axis.

    ``per_axis`` maps axis names ("x", "-y", ...) to coefficient tuples;
    pulses about other axes use ``coeffs``.  It is stored read-only, so the
    model stays the immutable value that :meth:`ErrorModel.realize` assumes.
    """

    coeffs: Coeffs
    per_axis: Mapping[str, Coeffs] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs, "coeffs"))
        fixed = {}
        for key, coeffs in self.per_axis.items():
            if key not in NAMED_AXES:
                raise ModelConfigError(f"unknown axis name {key!r}")
            fixed[key] = _as_coeffs(coeffs, key)
        object.__setattr__(self, "per_axis", MappingProxyType(fixed))

    def _offset(self, pulse, axis, alpha, scale):
        signed = axis if alpha >= 0 else tuple(-c for c in axis)
        poly = _poly_eval(self.per_axis.get(su2.axis_name(signed), self.coeffs), 2 * fabs(alpha))
        return scale * poly / 2


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
            object.__setattr__(self, name, _as_coeffs(getattr(self, name), name))

    @staticmethod
    def constant(vec) -> "CovariantVector":
        v = su2.as_vec3(vec)
        return CovariantVector((v[0],), (v[1],), (v[2],))

    def _generator(self, frame, alpha: mpf, scale: mpf) -> Vec3:
        """The lab error generator ``frame.map(scale * delta(2*|alpha|))``
        as a plain mpf expression, each operation rounded at the working
        precision."""
        theta = 2 * fabs(alpha)
        return frame.map([scale * _poly_eval(c, theta) for c in (self.dx, self.dy, self.dz)])

    def _forward(self, pulse, axis, alpha, scale):
        lab = self._generator(pulse.frame, alpha, scale)
        return su2.multiply(pulse.ideal_unitary(), su2.exp_pauli(lab))

    def _lab_generator(self, pulse, axis, alpha):
        return self._generator(pulse.frame, alpha, mpf(1))


@dataclass(frozen=True)
class AxisDependentPi3(_OverRotation):
    """Additive over-rotation of the "pi3" channel's correction pulses
    only, different for the two conjugation classes: ``delta`` on
    unconjugated (identity frame) pulses and ``delta_hat`` on conjugated
    ones, as the frame's numbers tell (so a frame conjugated into x-0pi
    counts as identity).  Combine with another model via :class:`PerChannel`."""

    CHANNELS = ("pi3",)

    delta: mpf
    delta_hat: mpf

    def __post_init__(self):
        object.__setattr__(self, "delta", mpf(self.delta))
        object.__setattr__(self, "delta_hat", mpf(self.delta_hat))

    def _offset(self, pulse, axis, alpha, scale):
        return scale * (self.delta if pulse.frame.is_identity() else self.delta_hat)


@dataclass(frozen=True)
class PerChannel(ErrorModel):
    """Models of the other kinds for the "target" and "pi3" channels,
    stored read-only; unlisted channels stay ideal."""

    models: Mapping[str, ErrorModel]

    def __post_init__(self):
        for channel, model in self.models.items():
            if channel not in self.CHANNELS:
                raise ModelConfigError(f"no model applies to channel {quoted(channel)}, only to {' and '.join(self.CHANNELS)}")
            if not isinstance(model, ErrorModel) or isinstance(model, PerChannel):
                named = describe(model) if isinstance(model, ErrorModel) else repr(model)
                raise ModelConfigError(f"channel {channel!r} needs a model of another kind, not {named}")
        object.__setattr__(self, "models", MappingProxyType(dict(self.models)))

    def realize(self, pulse, scale=1):
        model = self.models.get(pulse.channel)
        if model is None:
            return pulse.ideal_unitary()
        return model.realize(pulse, scale)

    def generator(self, pulse):
        model = self.models.get(pulse.channel)
        return _ZERO if model is None else model.generator(pulse)


# ---------------------------------------------------------------------------
# Config text: describe and parse_model both read _KINDS

_COEFF_BOUND = mpf("0.5")

# kind -> (class, separator between keys, keys).  A key is (config key,
# field, comma list?, default text or None when required); each named-axis
# key of "poly" is one optional entry of ``per_axis``.
_KINDS = {
    "linear": (LinearOverRotation, " ", [("eps", "eps", False, None)]),
    "poly": (AxisOverRotation, " ", [("coeffs", "coeffs", True, None)]
             + [(k, "per_axis", True, None) for k in NAMED_AXES]),
    "vector": (CovariantVector, ";", [(k, k, True, "0") for k in ("dx", "dy", "dz")]),
    "axisdep": (AxisDependentPi3, " ", [("delta", "delta", False, None), ("deltahat", "delta_hat", False, None)]),
}
_KIND_OF = {cls: kind for kind, (cls, _, _) in _KINDS.items()}


def _num(x: mpf) -> str:
    """``x`` in the fewest of dps or dps + 4 digits that read back exactly."""
    for digits in (mp.dps, mp.dps + 4):
        text = nstr(x, digits, strip_zeros=True, min_fixed=-5, max_fixed=8)
        if mpf(text) == x:
            break
    return text


def describe(model: Optional[ErrorModel]) -> str:
    """Config text of ``model`` without the ``model=`` prefix, every number
    exact at the working precision, so ``parse_model`` reads it back to an
    equal model.  ``None`` (no model at all) prints as ``none``."""
    if model is None:
        return "none"
    if isinstance(model, PerChannel):
        return " ".join(["channels"] + [f"{ch}{{{describe(m)}}}" for ch, m in sorted(model.models.items())])
    kind = _KIND_OF.get(type(model))
    if kind is None:
        return type(model).__name__
    _, sep, keys = _KINDS[kind]
    parts = []
    for key, name, is_list, _ in keys:
        value = getattr(model, name)
        if name == "per_axis":
            if key not in value:
                continue
            value = value[key]
        parts.append(f"{key}={','.join(map(_num, value)) if is_list else _num(value)}")
    return f"{kind} {sep.join(parts)}"


def parse_number(text: str, key: str) -> mpf:
    try:
        val = parse_decimal(text)
    except ValueError:
        raise ModelConfigError(f"bad number {quoted(text)} for {key}") from None
    if not mp.isfinite(val):
        raise ModelConfigError(f"non-finite value for {key}")
    return val


def _parse_coeff_list(text: str, key: str) -> Coeffs:
    return tuple(parse_number(part, key) for part in text.split(","))


def _check_bound(values, key: str) -> None:
    for v in values:
        if fabs(v) >= _COEFF_BOUND:
            raise ModelConfigError(f"coefficient {v} for {key} not small (|.| < 0.5 required)")


_BLOCK = re.compile(r"\s*(\w+)\{([^{}]*)\}")


def _parse_channels(text: str) -> PerChannel:
    """The ``<channel>{<kind text>}`` blocks after ``model=channels``."""
    models, pos = {}, 0
    while text[pos:].strip():
        block = _BLOCK.match(text, pos)
        if block is None:
            raise ModelConfigError(f"expected <channel>{{<model>}} blocks, got {quoted(text[pos:].strip())}")
        channel, body = block.groups()
        if channel in models:
            raise ModelConfigError(f"channel {quoted(channel)} given twice")
        models[channel] = parse_model("model=" + body)
        pos = block.end()
    return PerChannel(models)


def parse_model(text: str) -> ErrorModel:
    """Parse a model config string (grammar in the module docstring)."""
    channels = re.match(r"\s*model=channels(\s|$)", text)
    if channels:
        return _parse_channels(text[channels.end():])
    pairs = []
    for token in text.split():
        for piece in token.split(";"):
            if not piece:
                continue
            if "=" not in piece:
                raise ModelConfigError(f"expected key=value, got {quoted(piece)}")
            key, _, value = piece.partition("=")
            pairs.append((key.strip(), value.strip()))
    if not pairs or pairs[0][0] != "model":
        raise ModelConfigError("config must start with model=<kind>")
    kind = pairs[0][1]
    kv = {}
    for key, value in pairs[1:]:
        if key in kv:
            raise ModelConfigError(f"duplicate key {quoted(key)}")
        kv[key] = value
    if kind not in _KINDS:
        raise ModelConfigError(f"unknown model kind {quoted(kind)}")
    cls, _, keys = _KINDS[kind]
    args = {}
    for key, name, is_list, default in keys:
        value = kv.pop(key, default)
        if value is None:
            if name == "per_axis":
                continue
            raise ModelConfigError(f"model={kind} requires {key}=")
        value = _parse_coeff_list(value, key) if is_list else parse_number(value, key)
        _check_bound(value if is_list else (value,), key)
        if name == "per_axis":
            args.setdefault(name, {})[key] = value
        else:
            args[name] = value
    if kv:
        raise ModelConfigError(f"unknown keys for model={kind}: {quoted(', '.join(sorted(kv)))}")
    # axisdep: two nonzero over-rotations must be of the same order
    delta, delta_hat = args.get("delta"), args.get("delta_hat")
    if delta and delta_hat and not mpf("0.1") <= fabs(delta_hat / delta) <= 10:
        raise ModelConfigError(
            f"deltahat/delta ratio {fabs(delta_hat / delta)} outside [0.1, 10]: the two "
            "over-rotations must be of the same order"
        )
    return cls(**args)
