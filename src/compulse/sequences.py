"""Composite pulse sequences: types, builders, evaluation, and a text format.

Conventions that prevent the classic factor-of-2 and ordering bugs:

* Generator angles are stored as exact rational multiples of pi
  (``Fraction``), so a "pi pulse" (rotation angle pi) carries
  ``alpha_pi = 1/2``.  Builders normalize rotation-angle notation at their
  boundary.
* Pulse lists are in application (time) order: first entry is applied
  first.  Written operator products read right to left, so builders that
  start from an operator expression reverse it.
* A sequence's target is a pulse (see :func:`target_pulse`), the naive
  gate.  Every builder's output evaluates, under the all-zero error model,
  to its ideal unitary; the test suite enforces this for each builder.

A pulse carries a frame (its local axes in lab coordinates): a
:class:`FrameTriad`, or a :class:`FrameOf` reference to the pulse whose
conjugation frame it is.  The frame both fixes the lab rotation axis and
transports vector-type errors, so a conjugated correction carries the
conjugated error by construction.  Builders conjugate a correction by
reference to the target, so its frame is derived at evaluation precision.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional

from mpmath import acos, fabs, mp, mpf, nstr

from . import su2
from .precision import parse_decimal, quoted
from .su2 import GEOMETRY_TOL, LAB_AXES, Unitary, Vec3

CHANNELS = ("target", "pi3", "perfect")

X_AXIS, Y_AXIS, Z_AXIS = LAB_AXES.values()


class SequenceError(ValueError):
    """Structurally invalid sequence input (bad builder arguments, unknown
    builtin name, wrong target for a builder)."""


class DslError(ValueError):
    """Malformed sequence text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Role(enum.Enum):
    TARGET = "target"
    TARGET_DAGGER = "target_dagger"
    CORRECTION = "correction"
    CORRECTION_DAGGER = "correction_dagger"

    @property
    def is_dagger(self) -> bool:
        return self in (Role.TARGET_DAGGER, Role.CORRECTION_DAGGER)

    @property
    def is_target(self) -> bool:
        return self in (Role.TARGET, Role.TARGET_DAGGER)

    @property
    def partner(self) -> "Role":
        return _ROLE_PARTNER[self]


_ROLE_PARTNER = {
    Role.TARGET: Role.TARGET_DAGGER,
    Role.TARGET_DAGGER: Role.TARGET,
    Role.CORRECTION: Role.CORRECTION_DAGGER,
    Role.CORRECTION_DAGGER: Role.CORRECTION,
}

@dataclass(frozen=True)
class FrameTriad:
    """Right-handed orthonormal triad: the pulse's local axes in lab coordinates."""

    ex: Vec3
    ey: Vec3
    ez: Vec3

    def __post_init__(self):
        object.__setattr__(self, "ex", su2.as_vec3(self.ex))
        object.__setattr__(self, "ey", su2.as_vec3(self.ey))
        object.__setattr__(self, "ez", su2.as_vec3(self.ez))
        vs = (self.ex, self.ey, self.ez)
        for i in range(3):
            for j in range(i, 3):
                dot = sum(vs[i][k] * vs[j][k] for k in range(3))
                want = 1 if i == j else 0
                if fabs(dot - want) > GEOMETRY_TOL:
                    raise SequenceError(f"frame vectors not orthonormal: e{i}.e{j} = {dot}")
        det = _det3(*vs)
        if fabs(det - 1) > GEOMETRY_TOL:
            raise SequenceError(f"frame is not right-handed (det = {det})")

    @staticmethod
    def identity() -> "FrameTriad":
        return _IDENTITY_FRAME

    @staticmethod
    def from_unitary(g: Unitary) -> "FrameTriad":
        """Triad of the lab axes rotated by g (so conjugating a pulse by g
        means attaching this frame)."""
        return FrameTriad(
            su2.rotate_vector(g, X_AXIS),
            su2.rotate_vector(g, Y_AXIS),
            su2.rotate_vector(g, Z_AXIS),
        )

    def map(self, v: Iterable) -> Vec3:
        """The lab vector ``vx*ex + vy*ey + vz*ez`` as a plain mpf
        expression, each operation rounded at the working precision; in the
        identity frame that is ``v`` itself, rounded, bit for bit."""
        x, y, z = su2.as_vec3(v)
        return tuple(x * a + y * b + z * c for a, b, c in zip(self.ex, self.ey, self.ez))

    def is_identity(self) -> bool:
        """Whether the triad is the lab axes within GEOMETRY_TOL; the identity
        frame answers at once, which saves 1.3% of ``deep_chain`` time."""
        if self is _IDENTITY_FRAME:
            return True
        return all(su2.axes_match(v, w) for v, w in zip((self.ex, self.ey, self.ez), LAB_AXES.values()))


def _det3(a: Vec3, b: Vec3, c: Vec3):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


_IDENTITY_FRAME = FrameTriad(X_AXIS, Y_AXIS, Z_AXIS)


@dataclass(frozen=True)
class FrameOf:
    """``pulse.conjugation_frame()`` at the working precision, read through
    a reference; equal for equal pulses."""

    pulse: "Pulse"

    def map(self, v: Iterable) -> Vec3:
        return self.pulse.conjugation_frame().map(v)

    def is_identity(self) -> bool:
        return self.pulse.conjugation_frame().is_identity()


def _frac_to_radians(f: Fraction) -> mpf:
    return mp.pi * f.numerator / f.denominator


class _Derived:
    """A pulse's unit lab axis, radians, ideal unitary and conjugation frame
    (each made on first use) and last realization (model, scale, unitary),
    all at precision ``prec``."""

    __slots__ = ("prec", "axis", "alpha", "ideal", "frame", "realized")

    def __init__(self, prec: int, axis: Vec3, alpha: mpf):
        self.prec, self.axis, self.alpha = prec, axis, alpha
        self.ideal = self.frame = self.realized = None


@dataclass(frozen=True)
class Pulse:
    """One framed rotation.

    ``alpha_pi`` is the generator angle in units of pi (exact rational);
    the applied rotation angle is ``2*alpha_pi*pi``.  Dagger roles carry
    the negated generator of their forward partner.  ``channel`` names the
    error-model channel ("target", "pi3", or "perfect").  ``axis_in_frame``
    keeps the axis as given; only :meth:`derived` makes it unit.

    Everything the pulse derives at the working precision (unit lab axis,
    radians, ideal unitary, conjugation frame and last realization) sits in
    one record that :meth:`derived` drops when ``mp.prec`` changes.  The
    dagger partner is made once, from this pulse's frame and exact axis
    bits, and links back at every precision: ``p.daggered().daggered() is
    p``.  It derives its own record, the same axis bits and the negated
    angle.  An error model realizes a dagger pulse through that partner
    (see :meth:`ErrorModel.realize`), so :func:`evaluate` corrupts each
    dagger pair of a built chain or a parsed file (which :func:`parse`
    loads as shared, linked pulses) once per model and scale value.
    """

    frame: "FrameTriad | FrameOf"
    axis_in_frame: Vec3
    alpha_pi: Fraction
    role: Role
    channel: str
    _record: Optional[_Derived] = field(default=None, init=False, repr=False, compare=False)
    _dagger: Optional["Pulse"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "axis_in_frame", su2.tighten_axis(self.axis_in_frame))
        object.__setattr__(self, "alpha_pi", Fraction(self.alpha_pi))
        if self.channel not in CHANNELS:
            raise SequenceError(f"unknown channel {quoted(self.channel)}")

    def lab_axis(self) -> Vec3:
        """Unit lab axis at the working precision (see :meth:`derived`)."""
        return self.derived().axis

    def derived(self) -> _Derived:
        """The record of this pulse at the working precision, made afresh
        when ``mp.prec`` changes."""
        record, prec = self._record, mp.prec
        if record is None or record.prec != prec:
            axis = su2.unit_axis(self.frame.map(self.axis_in_frame))
            record = _Derived(prec, axis, _frac_to_radians(self.alpha_pi))
            object.__setattr__(self, "_record", record)
        return record

    def alpha(self) -> mpf:
        """Generator angle in radians at the current precision."""
        return self.derived().alpha

    def rotation_angle_pi(self) -> Fraction:
        """Unsigned rotation angle in units of pi."""
        return abs(2 * self.alpha_pi)

    def ideal_unitary(self) -> Unitary:
        """The ideal unitary, kept in the record: made afresh on each call,
        ``reference`` ``wall_s`` is 18-25% higher."""
        record = self.derived()
        if record.ideal is None:
            record.ideal = su2.rotation(record.axis, record.alpha)
        return record.ideal

    def conjugation_frame(self) -> FrameTriad:
        """The lab axes rotated by this pulse's ideal unitary: the frame that
        conjugates a pulse into this one's.  Kept in the record, so each
        :class:`FrameOf` reference reads one triad per precision: made afresh
        on each call, ``deep_chain`` ``wall_s`` is 6-9% higher."""
        record = self.derived()
        if record.frame is None:
            record.frame = FrameTriad.from_unitary(self.ideal_unitary())
        return record.frame

    def forward(self) -> "Pulse":
        """The non-dagger partner (self if already a forward pulse)."""
        return self.daggered() if self.role.is_dagger else self

    def daggered(self) -> "Pulse":
        """The partner with the negated angle and the partner role, made on
        first use with this pulse's frame and exact axis bits."""
        partner = self._dagger
        if partner is None:
            # made directly: through replace() the partner would run the
            # acceptance check again on data this pulse has passed
            partner = object.__new__(Pulse)
            partner.__dict__.update(
                vars(self), alpha_pi=-self.alpha_pi, role=self.role.partner, _record=None, _dagger=self
            )
            object.__setattr__(self, "_dagger", partner)
        return partner


def target_pulse(axis: Iterable, alpha_pi) -> Pulse:
    """The target rotation as a pulse: identity frame, "target" channel,
    generator angle ``alpha_pi`` in units of pi."""
    return Pulse(FrameTriad.identity(), axis, alpha_pi, Role.TARGET, "target")


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered pulses realizing a target pulse (first in list = first applied)."""

    target: Pulse
    pulses: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))

    def ideal_unitary(self) -> Unitary:
        return self.target.ideal_unitary()

    def pulse_counts(self) -> tuple:
        """(# target-role pulses, # correction-role pulses)."""
        n_t = sum(1 for p in self.pulses if p.role.is_target)
        return n_t, len(self.pulses) - n_t


def total_angle(seq: PulseSequence) -> Fraction:
    """Sum of unsigned rotation angles, in units of pi (exact)."""
    return sum((p.rotation_angle_pi() for p in seq.pulses), Fraction(0))


def evaluate(seq: PulseSequence, model, scale=1) -> Unitary:
    """Multiply out the realized pulses.

    ``model`` may be None for an all-ideal evaluation.  Pulses on channels
    outside a model's ``CHANNELS`` stay ideal (see :meth:`ErrorModel.realize`).
    To hold the pi/3 correction pulses ideal, pass
    ``PerChannel({"target": model})``.
    """
    out = su2.identity()
    for p in seq.pulses:
        u = p.ideal_unitary() if model is None else model.realize(p, scale)
        out = su2.multiply(u, out)
    return out


# ---------------------------------------------------------------------------
# Builders


def naive(t: Pulse) -> PulseSequence:
    return PulseSequence(t, (t,), name="naive")


def pi3_correct(inner: PulseSequence, axis: Iterable) -> PulseSequence:
    """Wrap a sequence in the seven-slot pi/3 correction about ``axis``.

    Time order: C0^ inner Ct inner^ C0 inner Ct^, where C0 is the pi/3
    rotation about ``axis`` and Ct is the same pulse in the frame
    ``FrameOf(inner.target)``, both keeping ``axis`` as given.  Pulse
    count obeys n -> 3n + 4.
    """
    sixth = Fraction(1, 6)
    c0 = Pulse(FrameTriad.identity(), axis, sixth, Role.CORRECTION, "pi3")
    axis = c0.axis_in_frame  # the accepted axis, as given
    ct = Pulse(FrameOf(inner.target), axis, sixth, Role.CORRECTION, "pi3")
    inner_dagger = tuple(p.daggered() for p in reversed(inner.pulses))

    pulses = (c0.daggered(), *inner.pulses, ct, *inner_dagger, c0, *inner.pulses, ct.daggered())
    return PulseSequence(inner.target, pulses, name=f"pi3({_axis_label(axis)})∘{inner.name or 'seq'}")


def pi5_sequence(t: Pulse, perfect: bool = True) -> PulseSequence:
    """Five-application correction with 3pi/5 and -pi/5 auxiliary rotations.

    The raw product leaves an exact residual rotation about the auxiliary
    axis; since that axis commutes with the |+/-> analysis states, a
    single compensating rotation prepended in time restores exact equality
    with the target at zero error without touching the state-fidelity
    scaling.  With ``perfect`` the auxiliary rotations sit on the
    "perfect" channel; otherwise on "pi3" so an error model can reach
    them.  Conjugated ones are in the frame ``FrameOf(t)``.
    """
    ch = "perfect" if perfect else "pi3"
    f_id = FrameTriad.identity()
    f_u = FrameOf(t)

    def aux(frame, alpha_pi):
        return Pulse(frame, X_AXIS, Fraction(alpha_pi), Role.CORRECTION, ch)

    td = t.daggered()
    pulses = (
        aux(f_id, Fraction(-2, 5)),  # compensates the residual 4pi/5 rotation
        t,
        aux(f_u, Fraction(3, 10)),
        td,
        aux(f_id, Fraction(-1, 10)),
        t,
        aux(f_u, Fraction(-1, 10)),
        td,
        aux(f_id, Fraction(3, 10)),
        t,
    )
    return PulseSequence(t, pulses, name="pi5")


def _phase_blocks(name: str, t: Pulse, span: int, layout: tuple) -> PulseSequence:
    """The target pulse ``t``, a ``theta`` rotation about x, followed in time
    by correction pulses about xy-plane axes, with cos(phi) = -theta/(span*pi).

    ``layout`` lists each correction pulse as (phase multiple k, generator
    angle in units of pi); its axis sits at phase k*phi.  Repeated entries
    share one :class:`Pulse`.  Its axis components are closed forms of the
    exact theta, ``span`` and k, read at the working precision as ``mp.pi``
    is: a build evaluates at any precision like a build at that one, and
    a pulse compares and hashes by its axis at the working precision (no
    library path hashes a built pulse; :func:`parse` interns parsed ones).
    """
    if su2.axis_name(t.axis_in_frame) != "x":
        raise SequenceError(f"{name} corrects rotations about x; got axis {_axis_label(t.axis_in_frame)}")
    theta_pi = 2 * t.alpha_pi
    if abs(theta_pi) > span:
        raise SequenceError(f"{name} needs |theta| <= {span}*pi for a real correction phase")
    made = {}
    for k, alpha_pi in set(layout):
        axis = (_phase_component("cos", k, theta_pi, span), _phase_component("sin", k, theta_pi, span), 0)
        made[k, alpha_pi] = Pulse(FrameTriad.identity(), axis, alpha_pi, Role.CORRECTION, "target")
    return PulseSequence(t, (t, *(made[entry] for entry in layout)), name=name)


def _phase_component(f: str, k: int, theta_pi: Fraction, span: int):
    """``f(k*phi)`` for ``f`` "cos" or "sin", cos(phi) = -theta/(span*pi),
    as an ``mp.constant``: each read computes it afresh at the precision
    that reads it, by the same operations in the same order at any one."""

    def value(prec, rounding):
        with mp.workprec(prec):
            phi = acos(-mpf(theta_pi.numerator) / theta_pi.denominator / span)
            return getattr(mp, f)(k * phi)._mpf_

    return mp.constant(value, f"{f}({k}*phi)")


# b2's correction block, (phi, pi) (3*phi, 2*pi) (phi, pi) as rotations;
# b4 wraps four of them around each side of a negative-angle middle block.
_B2_BLOCK = ((1, Fraction(1, 2)), (3, Fraction(1)), (1, Fraction(1, 2)))
_B4_LAYOUT = _B2_BLOCK * 4 + ((1, Fraction(-1)), (-1, Fraction(-2)), (1, Fraction(-1))) + _B2_BLOCK * 4


def b2(t: Pulse) -> PulseSequence:
    """Second-order compensation of ``t``, a ``theta`` rotation about x.

    Correction pulses rotate about xy-plane axes at phases phi and 3*phi
    with cos(phi) = -theta/(4*pi); ``t`` itself comes first in time.
    """
    return _phase_blocks("b2", t, 4, _B2_BLOCK)


def b4(t: Pulse) -> PulseSequence:
    """Fourth-order compensation of ``t``, a ``theta`` rotation about x.

    ``t``, then 27 correction pulses: two palindromic four-fold blocks
    around a negative-angle middle block, cos(phi) = -theta/(24*pi).
    """
    return _phase_blocks("b4", t, 24, _B4_LAYOUT)


def symmetrize(seq: PulseSequence) -> PulseSequence:
    """Split the target pulse of a b2/b4-style sequence into two noisy half
    pulses around the correction block.

    Total rotation angle is unchanged; the residual error direction moves
    entirely into the xz plane.
    """
    if not seq.pulses:
        raise SequenceError("not a compensation sequence: no pulses")
    head, rest = seq.pulses[0], seq.pulses[1:]
    target_like = (
        head.role == Role.TARGET
        and head.channel == "target"
        and head.frame == FrameTriad.identity()
        and head.alpha_pi == seq.target.alpha_pi
        and su2.axes_match(head.axis_in_frame, seq.target.axis_in_frame)
    )
    if not target_like or not all(p.role == Role.CORRECTION for p in rest):
        raise SequenceError("symmetrize expects a target pulse followed by a correction block")
    half = replace(head, alpha_pi=head.alpha_pi / 2)
    return PulseSequence(seq.target, (half, *rest, half), name=seq.name + "sym")


# ---------------------------------------------------------------------------
# Builtin registry


def _axis_label(axis: Vec3) -> str:
    label = (su2.axis_name(axis) or "").upper()
    return label if label in LAB_AXES else "(" + ",".join(nstr(a, 6) for a in axis) + ")"


_TARGET_RE = re.compile(r"([xyz])-([+-]?\d*)pi(?:/(0*[1-9]\d*))?", re.IGNORECASE | re.ASCII)


def parse_target(spec: str) -> Pulse:
    """The target pulse of a descriptor ``<axis>-[+|-][<p>]pi[/<q>]`` with
    q >= 1, e.g. "x-pi", "z-pi/2", "y--3pi/4".

    The angle is the signed rotation angle, so "x-pi" is a pi pulse about x.
    """
    match = _TARGET_RE.fullmatch(spec)
    try:
        if match is None:
            raise ValueError
        axis, p, q = match.groups()
        rotation = Fraction(int(p + "1" if p in ("", "+", "-") else p), int(q or 1))
    except ValueError:  # no match, or digits beyond Python's int-string limit
        raise SequenceError(f"bad target {quoted(spec)}: expected <axis>-[+|-][<p>]pi[/<q>] with q >= 1") from None
    return target_pulse(LAB_AXES[axis.upper()], rotation / 2)


def pulse_count(levels: int, base: int = 1) -> int:
    """Length after ``levels`` pi/3 corrections onto ``base`` pulses: n -> 3n + 4,
    in closed form."""
    return 3**levels * (base + 2) - 2


# Most pulses a built chain may hold: MAX_LEVELS pi/3 levels on one pulse.
# Every base has a pulse, so no deeper chain fits.  Both are checked before
# building, so a deep concat: spec fails at once instead of exhausting memory.
MAX_LEVELS = 12
MAX_PULSES = pulse_count(MAX_LEVELS)

# Every builtin in listing order: name -> (base builder taking the target
# pulse, pi/3 correction axes applied after it, leftmost innermost).
_BUILTINS = {
    "naive": (naive, ""),
    **{f"pi3:{a}": (naive, a) for a in LAB_AXES},
    "pi5": (pi5_sequence, ""),
    "b2": (b2, ""),
    "b4": (b4, ""),
    "b2sym": (lambda t: symmetrize(b2(t)), ""),
    "b4sym": (lambda t: symmetrize(b4(t)), ""),
    "pi3Y∘b2sym": (lambda t: symmetrize(b2(t)), "Y"),
    "pi3Y∘b4sym": (lambda t: symmetrize(b4(t)), "Y"),
}
BUILTIN_NAMES = tuple(_BUILTINS)


_NOT_AN_AXIS = re.compile(r"[^XYZxyz]")


def _resolve(name: str) -> tuple:
    """The (base builder, correction axes) that the builtin ``name`` builds."""
    axes, base = "", name
    if name.startswith("concat:"):
        _, axes, *rest = name.split(":", 2)
        if not axes:
            raise SequenceError(f"bad concat spec {quoted(name)}: expected concat:<AXES>[:<base>]")
        bad = _NOT_AN_AXIS.search(axes)
        if bad:
            raise SequenceError(f"unknown correction axis {bad.group()!r} at position {bad.start() + 1} of the concat axes")
        base = rest[0] if rest else "naive"
        if base.startswith("concat:"):
            raise SequenceError("nested concat specs are not supported")
    # pi3:<A> takes its axis letter in either case
    row = _BUILTINS.get("pi3:" + base[4:].upper() if base.startswith("pi3:") else base)
    if row is None:
        raise SequenceError(f"unknown sequence {quoted(base)} (builtins: {', '.join(BUILTIN_NAMES)})")
    return row[0], row[1] + axes.upper()


def build_builtin(name: str, target: Optional[Pulse] = None) -> PulseSequence:
    """Construct the builtin ``name`` for a target pulse (default: pi pulse
    about x).  The result carries ``name``.

    ``concat:<AXES>[:<base>]`` chains pi/3 corrections (leftmost axis
    innermost) onto a base builtin, e.g. ``concat:XYY:naive`` or
    ``concat:Y:b2sym``; a chain base adds its own levels first, so
    ``concat:XY:pi3:x`` builds ``concat:XXY``.
    """
    if target is None:
        target = target_pulse(X_AXIS, Fraction(1, 2))
    base, axes = _resolve(name)
    if len(axes) > MAX_LEVELS:
        raise SequenceError(
            f"a chain of {len(axes)} levels is deeper than {MAX_LEVELS}; the limit is {MAX_PULSES} pulses"
        )
    seq = base(target)
    flat = pulse_count(len(axes), len(seq.pulses))
    if flat > MAX_PULSES:
        raise SequenceError(f"{name} makes {flat} pulses; the limit is {MAX_PULSES}")
    for letter in axes:
        seq = pi3_correct(seq, LAB_AXES[letter])
    return replace(seq, name=name)


# ---------------------------------------------------------------------------
# Text format
#
#   # sequence: <name>
#   target <nx> <ny> <nz> <p>/<q>
#   pulse <nx> <ny> <nz> <p>/<q> <role> <channel> [frame target | frame <9 numbers>]
#
# Scalars are written with dps + 4 digits: dps decimal digits do not always
# pin down a value of mp.prec bits, and four more do, so a written number
# reads back bit-exactly at the precision that wrote it.


def format_scalar(x) -> str:
    return nstr(mpf(x), mp.dps + 4, strip_zeros=True)


def _axis_angle(axis: Vec3, alpha_pi: Fraction) -> str:
    """The axis and angle fields that target and pulse lines share."""
    return " ".join(map(format_scalar, axis)) + f" {alpha_pi.numerator}/{alpha_pi.denominator}"


def serialize(seq: PulseSequence) -> str:
    """The sequence in the text format, each distinct pulse object formatted
    once: formatting every pulse, ``text_io`` ``wall_s`` is 2.1 times as high.
    ``FrameOf(seq.target)`` is written ``frame target``, and any
    other frame but the identity as nine numbers at the working precision.
    A name that would not read back (a line feed, or whitespace at either
    end) raises SequenceError."""
    if "\n" in seq.name or seq.name != seq.name.strip():
        raise SequenceError(f"name {seq.name!r} does not round-trip: it has a line feed or whitespace at an end")
    lines = [f"# sequence: {seq.name}"] if seq.name else []
    lines.append("target " + _axis_angle(seq.target.axis_in_frame, seq.target.alpha_pi))
    formatted = {}  # id(pulse) -> its line; seq.pulses keeps every id alive
    for p in seq.pulses:
        line = formatted.get(id(p))
        if line is None:
            line = formatted[id(p)] = _format_pulse(p, seq.target)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _format_pulse(p: Pulse, target: Pulse) -> str:
    """The pulse line of ``p`` in a sequence whose target is ``target``."""
    line = f"pulse {_axis_angle(p.axis_in_frame, p.alpha_pi)} {p.role.value} {p.channel}"
    f = p.frame
    if isinstance(f, FrameOf):
        if f.pulse == target:
            return line + " frame target"
        f = f.pulse.conjugation_frame()
    if f == FrameTriad.identity():
        return line
    return line + " frame " + " ".join(map(format_scalar, f.ex + f.ey + f.ez))


_TOKEN_RE = re.compile(r"\S+")


def _parse_scalar(tok: str, col: int, lineno: int):
    try:
        val = parse_decimal(tok)
    except ValueError:
        raise DslError(f"bad number {quoted(tok)}", lineno, col) from None
    if not mp.isfinite(val):
        raise DslError(f"non-finite number {quoted(tok)}", lineno, col)
    return val


_FRACTION_RE = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def _parse_fraction(tok: str, col: int, lineno: int) -> Fraction:
    if not _FRACTION_RE.fullmatch(tok):
        raise DslError(f"bad rational angle {quoted(tok)} (expected p/q)", lineno, col)
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise DslError(f"bad rational angle {quoted(tok)} (zero denominator)", lineno, col) from None
    except ValueError:  # beyond Python's limit on int-string conversion
        raise DslError(f"rational angle of {len(tok)} characters is too long", lineno, col) from None


_NAME_PREFIX = "# sequence:"


def parse(text: str) -> PulseSequence:
    """Parse the line-oriented sequence format; errors carry line and column.

    Lines end at a line feed only: a carriage return, form feed or Unicode
    line separator is whitespace, and one leading byte-order mark is dropped.

    Pulse lines that load to equal values (``1`` and ``1.0`` alike, whatever
    the spacing or trailing comment) load as one shared :class:`Pulse`;
    ``frame target`` reads as ``FrameOf(target)``.  Dagger partners are
    linked by value: a pulse whose :meth:`Pulse.daggered` value is also in
    the file is linked to that pulse.  A pulse line that repeats an earlier
    line exactly is looked up as read, without splitting or reading its
    numbers again: without that lookup ``text_io`` ``wall_s`` is 7.7-7.9
    times as high.
    """
    target = None
    pulses = []
    name = ""
    made = {}  # text of a pulse line -> the Pulse it built
    shared = {}  # pulse value -> its one Pulse, closed under daggered()
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        pulse = made.get(raw)  # a bad line never enters `made`
        if pulse is not None:
            pulses.append(pulse)
            continue
        if target is None and not name and raw.lstrip().startswith(_NAME_PREFIX):
            name = raw.lstrip()[len(_NAME_PREFIX):].strip()
            continue
        line = raw.split("#", 1)[0]
        toks = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        if not toks:
            continue
        head, head_col = toks[0]
        if head == "target":
            if target is not None:
                raise DslError("duplicate target line", lineno, head_col)
            if len(toks) != 5:
                raise DslError("target needs axis (3 numbers) and angle p/q", lineno, head_col)
        elif head == "pulse":
            if target is None:
                raise DslError("pulse before target line", lineno, head_col)
            if len(toks) < 7:
                raise DslError("pulse needs axis, angle, role, channel and optionally a frame", lineno, head_col)
        else:
            raise DslError(f"unknown directive {quoted(head)}", lineno, head_col)
        axis = tuple(_parse_scalar(t, c, lineno) for t, c in toks[1:4])
        alpha = _parse_fraction(*toks[4], lineno)
        if head == "target":
            try:
                target = target_pulse(axis, alpha)
            except su2.InvalidAxisError as exc:
                raise DslError(str(exc), lineno, head_col) from None
            continue
        role_tok, role_col = toks[5]
        try:
            role = Role(role_tok)
        except ValueError:
            raise DslError(f"unknown role {quoted(role_tok)}", lineno, role_col) from None
        channel_tok, channel_col = toks[6]
        frame = _parse_frame(toks[7:], target, lineno) if len(toks) > 7 else FrameTriad.identity()
        try:
            pulse = Pulse(frame, axis, alpha, role, channel_tok)
        except su2.InvalidAxisError as exc:
            raise DslError(str(exc), lineno, toks[1][1]) from None
        except SequenceError as exc:  # the only check left is the channel's
            raise DslError(str(exc), lineno, channel_col) from None
        pulse = made[raw] = shared.setdefault(pulse, pulse)
        partner = pulse.daggered()
        shared.setdefault(partner, partner)
        pulses.append(pulse)
    if target is None:
        raise DslError("missing target line", 1, 1)
    return PulseSequence(target, tuple(pulses), name=name)


def _parse_frame(toks: list, target: Pulse, lineno: int):
    """The frame of a pulse line from its (token, column) pairs after the channel."""
    (kw, kw_col), rest = toks[0], toks[1:]
    if kw != "frame":
        raise DslError(f"expected 'frame', got {quoted(kw)}", lineno, kw_col)
    if rest and rest[0][0] == "target":
        if len(rest) > 1:
            raise DslError(f"unexpected {quoted(rest[1][0])} after 'frame target'", lineno, rest[1][1])
        return FrameOf(target)
    if len(rest) != 9:
        raise DslError("'frame' needs 'target' or 9 numbers", lineno, kw_col)
    nums = [_parse_scalar(t, c, lineno) for t, c in rest]
    try:
        return FrameTriad(tuple(nums[0:3]), tuple(nums[3:6]), tuple(nums[6:9]))
    except SequenceError as exc:
        raise DslError(str(exc), lineno, kw_col) from None
