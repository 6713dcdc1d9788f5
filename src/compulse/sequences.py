"""Composite pulse sequences: types, builders, evaluation, and a text format.

Conventions that prevent the classic factor-of-2 and ordering bugs:

* Generator angles are stored as exact rational multiples of pi
  (``Fraction``), so a "pi pulse" (rotation angle pi) carries
  ``alpha_pi = 1/2``.  Builders normalize rotation-angle notation at their
  boundary.
* Pulse lists are in application (time) order: first entry is applied
  first.  Written operator products read right to left, so builders that
  start from an operator expression reverse it.
* Every builder's output evaluates, under the all-zero error model, to its
  declared target gate; the test suite enforces this for each builder.

A pulse carries a frame triad (its local axes in lab coordinates).  The
frame both fixes the lab rotation axis and transports vector-type errors,
which is what makes a conjugated correction pulse carry the conjugated
error by construction.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional

from mpmath import acos, cos, fabs, mp, mpf, nstr, sin

from . import su2
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
        vx, vy, vz = su2.as_vec3(v)
        return tuple(
            vx * self.ex[k] + vy * self.ey[k] + vz * self.ez[k] for k in range(3)
        )

    def is_exact_identity(self) -> bool:
        return (
            self.ex == (1, 0, 0) and self.ey == (0, 1, 0) and self.ez == (0, 0, 1)
        )

    def is_identity(self) -> bool:
        if self is _IDENTITY_FRAME:
            return True
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for v, w in zip((self.ex, self.ey, self.ez), ident):
            for a, b in zip(v, w):
                if fabs(a - b) > GEOMETRY_TOL:
                    return False
        return True


def _det3(a: Vec3, b: Vec3, c: Vec3):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


_IDENTITY_FRAME = FrameTriad(X_AXIS, Y_AXIS, Z_AXIS)


def _frac_to_radians(f: Fraction) -> mpf:
    return mp.pi * f.numerator / f.denominator


@dataclass(frozen=True)
class Pulse:
    """One framed rotation.

    ``alpha_pi`` is the generator angle in units of pi (exact rational);
    the applied rotation angle is ``2*alpha_pi*pi``.  Dagger roles carry
    the negated generator of their forward partner.  ``channel`` names the
    error-model channel ("target", "pi3", or "perfect").

    The unit lab axis and the angle in radians are derived on first use
    and kept until the working precision changes.
    """

    frame: FrameTriad
    axis_in_frame: Vec3
    alpha_pi: Fraction
    role: Role
    channel: str
    _geometry: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "axis_in_frame", su2.tighten_axis(self.axis_in_frame))
        object.__setattr__(self, "alpha_pi", Fraction(self.alpha_pi))
        if self.channel not in CHANNELS:
            raise SequenceError(f"unknown channel {self.channel!r}")

    def lab_axis(self) -> Vec3:
        return su2.tighten_axis(self.frame.map(self.axis_in_frame))

    def _compiled(self) -> tuple:
        """(mp.prec, unit lab axis, generator radians) at the current precision."""
        geometry = self._geometry
        if geometry is None or geometry[0] != mp.prec:
            axis = su2.normalized_axis(self.lab_axis())
            geometry = (mp.prec, axis, _frac_to_radians(self.alpha_pi))
            object.__setattr__(self, "_geometry", geometry)
        return geometry

    def unit_axis(self) -> Vec3:
        """Lab rotation axis, normalized at the current precision."""
        return self._compiled()[1]

    def alpha(self) -> mpf:
        """Generator angle in radians at the current precision."""
        return self._compiled()[2]

    def rotation_angle_pi(self) -> Fraction:
        """Unsigned rotation angle in units of pi."""
        return abs(2 * self.alpha_pi)

    def ideal_unitary(self) -> Unitary:
        _, axis, alpha = self._compiled()
        return su2.rotation(axis, alpha)

    def forward(self) -> "Pulse":
        """The non-dagger partner (self if already a forward pulse)."""
        return self.daggered() if self.role.is_dagger else self

    def daggered(self) -> "Pulse":
        return replace(self, alpha_pi=-self.alpha_pi, role=self.role.partner)


@dataclass(frozen=True)
class Gate:
    """Ideal target rotation: unit axis and generator angle in units of pi."""

    axis: Vec3
    alpha_pi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "axis", su2.tighten_axis(self.axis))
        object.__setattr__(self, "alpha_pi", Fraction(self.alpha_pi))

    def alpha(self) -> mpf:
        return _frac_to_radians(self.alpha_pi)

    def unitary(self) -> Unitary:
        return su2.from_generator(self.axis, self.alpha())

    def daggered(self) -> "Gate":
        return Gate(self.axis, -self.alpha_pi)


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered pulses realizing a target gate (first in list = first applied)."""

    target: Gate
    pulses: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))

    def ideal_unitary(self) -> Unitary:
        return self.target.unitary()

    def daggered(self) -> "PulseSequence":
        return PulseSequence(
            self.target.daggered(),
            tuple(p.daggered() for p in reversed(self.pulses)),
            name=self.name + "^",
        )

    def pulse_counts(self) -> tuple:
        """(# target-role pulses, # correction-role pulses)."""
        n_t = sum(1 for p in self.pulses if p.role.is_target)
        return n_t, len(self.pulses) - n_t


def total_angle(seq: PulseSequence) -> Fraction:
    """Sum of unsigned rotation angles, in units of pi (exact)."""
    return sum((p.rotation_angle_pi() for p in seq.pulses), Fraction(0))


def evaluate(seq: PulseSequence, model, scale=1, perfect_pi3: bool = False) -> Unitary:
    """Multiply out the realized pulses.

    ``model`` may be None for an all-ideal evaluation.  Pulses on channel
    "perfect" always bypass the model; pulses on channel "pi3" bypass it
    when ``perfect_pi3`` is set.
    """
    out = su2.identity()
    for p in seq.pulses:
        bypass = (
            model is None
            or p.channel == "perfect"
            or (perfect_pi3 and p.channel == "pi3")
        )
        u = p.ideal_unitary() if bypass else model.realize(p, scale)
        out = su2.multiply(u, out)
    return out


# ---------------------------------------------------------------------------
# Builders


def naive(gate: Gate) -> PulseSequence:
    pulse = Pulse(FrameTriad.identity(), gate.axis, gate.alpha_pi, Role.TARGET, "target")
    return PulseSequence(gate, (pulse,), name="naive")


def pi3_correct(inner: PulseSequence, axis: Iterable) -> PulseSequence:
    """Wrap a sequence in the seven-slot pi/3 correction about ``axis``.

    Time order: C0^ inner Ct inner^ C0 inner Ct^, where C0 is the pi/3
    rotation about ``axis`` and Ct is the same pulse conjugated into the
    target gate's frame.  Pulse count obeys n -> 3n + 4.
    """
    axis = su2.normalized_axis(axis)
    u = inner.target.unitary()
    f_id = FrameTriad.identity()
    f_u = FrameTriad.from_unitary(u)
    sixth = Fraction(1, 6)

    c0 = Pulse(f_id, axis, sixth, Role.CORRECTION, "pi3")
    c0d = Pulse(f_id, axis, -sixth, Role.CORRECTION_DAGGER, "pi3")
    ct = Pulse(f_u, axis, sixth, Role.CORRECTION, "pi3")
    ctd = Pulse(f_u, axis, -sixth, Role.CORRECTION_DAGGER, "pi3")
    inner_dagger = inner.daggered().pulses

    pulses = (c0d, *inner.pulses, ct, *inner_dagger, c0, *inner.pulses, ctd)
    return PulseSequence(inner.target, pulses, name=f"pi3({_axis_label(axis)})∘{inner.name or 'seq'}")


def pi5_sequence(gate: Gate, perfect: bool = True) -> PulseSequence:
    """Five-application correction with 3pi/5 and -pi/5 auxiliary rotations.

    The raw product leaves an exact residual rotation about the auxiliary
    axis; since that axis commutes with the |+/-> analysis states, a
    single compensating rotation prepended in time restores exact equality
    with the target at zero error without touching the state-fidelity
    scaling.  With ``perfect`` the auxiliary rotations sit on the
    "perfect" channel; otherwise on "pi3" so an error model can reach
    them.
    """
    ch = "perfect" if perfect else "pi3"
    u = gate.unitary()
    f_id = FrameTriad.identity()
    f_u = FrameTriad.from_unitary(u)

    def aux(frame, alpha_pi):
        return Pulse(frame, X_AXIS, Fraction(alpha_pi), Role.CORRECTION, ch)

    t = Pulse(f_id, gate.axis, gate.alpha_pi, Role.TARGET, "target")
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
    return PulseSequence(gate, pulses, name="pi5")


def _xy_axis(phi: mpf) -> Vec3:
    return (cos(phi), sin(phi), mpf(0))


def b2(theta_pi: Fraction = Fraction(1)) -> PulseSequence:
    """Second-order compensation of a ``theta`` rotation about x (BB1 family).

    Correction pulses rotate about xy-plane axes at phases phi and 3*phi
    with cos(phi) = -theta/(4*pi); the target pulse comes first in time.
    """
    theta_pi = Fraction(theta_pi)
    if abs(theta_pi) > 4:
        raise SequenceError("b2 needs |theta| <= 4*pi for a real correction phase")
    gate = Gate(X_AXIS, theta_pi / 2)
    phi = acos(-mpf(theta_pi.numerator) / theta_pi.denominator / 4)
    half = Fraction(1, 2)

    def corr(axis_phi, alpha_pi):
        return Pulse(FrameTriad.identity(), _xy_axis(axis_phi), alpha_pi, Role.CORRECTION, "target")

    pulses = (
        Pulse(FrameTriad.identity(), X_AXIS, gate.alpha_pi, Role.TARGET, "target"),
        corr(phi, half),
        corr(3 * phi, Fraction(1)),
        corr(phi, half),
    )
    return PulseSequence(gate, pulses, name="b2")


def b4(theta_pi: Fraction = Fraction(1)) -> PulseSequence:
    """Fourth-order compensation of a ``theta`` rotation about x.

    27 correction pulses: two palindromic four-fold blocks around a
    negative-angle middle block, phases from cos(phi) = -theta/(24*pi).
    """
    theta_pi = Fraction(theta_pi)
    if abs(theta_pi) > 24:
        raise SequenceError("b4 needs |theta| <= 24*pi for a real correction phase")
    gate = Gate(X_AXIS, theta_pi / 2)
    phi = acos(-mpf(theta_pi.numerator) / theta_pi.denominator / 24)

    def corr(axis_phi, alpha_pi):
        return Pulse(
            FrameTriad.identity(), _xy_axis(axis_phi), Fraction(alpha_pi), Role.CORRECTION, "target"
        )

    triple = (
        corr(phi, Fraction(1, 2)),
        corr(3 * phi, Fraction(1)),
        corr(phi, Fraction(1, 2)),
    )
    middle = (
        corr(phi, Fraction(-1)),
        corr(-phi, Fraction(-2)),
        corr(phi, Fraction(-1)),
    )
    pulses = (
        Pulse(FrameTriad.identity(), X_AXIS, gate.alpha_pi, Role.TARGET, "target"),
        *(triple * 4),
        *middle,
        *(triple * 4),
    )
    return PulseSequence(gate, pulses, name="b4")


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
        and head.frame.is_exact_identity()
        and head.alpha_pi == seq.target.alpha_pi
        and all(fabs(a - b) <= GEOMETRY_TOL for a, b in zip(head.axis_in_frame, seq.target.axis))
    )
    if not target_like or not all(p.role == Role.CORRECTION for p in rest):
        raise SequenceError("symmetrize expects a target pulse followed by a correction block")
    half = replace(head, alpha_pi=head.alpha_pi / 2)
    return PulseSequence(seq.target, (half, *rest, half), name=seq.name + "sym")


# ---------------------------------------------------------------------------
# Builtin registry


def _axis_label(axis: Vec3) -> str:
    for label, vec in LAB_AXES.items():
        if all(fabs(a - b) <= GEOMETRY_TOL for a, b in zip(axis, vec)):
            return label
    return "(" + ",".join(nstr(a, 6) for a in axis) + ")"


def parse_target(spec: str) -> Gate:
    """Gate descriptor ``<axis>-<p>pi[/<q>]``, e.g. "x-pi", "z-pi/2", "y-3pi/4".

    The angle is the rotation angle, so "x-pi" is a pi pulse about x.
    """
    try:
        axis_part, angle_part = spec.split("-", 1)
    except ValueError:
        raise SequenceError(f"bad target {spec!r}: expected <axis>-<angle>") from None
    axis = LAB_AXES.get(axis_part.strip().upper())
    if axis is None:
        raise SequenceError(f"bad target axis {axis_part!r}: expected x, y or z")
    angle_part = angle_part.strip().lower()
    if "pi" not in angle_part:
        raise SequenceError(f"bad target angle {angle_part!r}: expected a multiple of pi")
    head, _, tail = angle_part.partition("pi")
    try:
        p = int(head) if head else 1
        q = int(tail[1:]) if tail.startswith("/") else 1
        if tail and not tail.startswith("/"):
            raise ValueError
        rotation = Fraction(p, q)
    except (ValueError, ZeroDivisionError):
        raise SequenceError(f"bad target angle {angle_part!r}") from None
    return Gate(axis, rotation / 2)


def _about_x(builder, sym: bool = False):
    """Table row for a b2/b4 compensator, which corrects rotations about x."""
    label = builder.__name__ + "sym" * sym

    def build(target: Gate) -> PulseSequence:
        if any(fabs(a - b) > GEOMETRY_TOL for a, b in zip(target.axis, X_AXIS)):
            raise SequenceError(f"{label} corrects rotations about x; got axis {target.axis}")
        seq = builder(2 * target.alpha_pi)
        return symmetrize(seq) if sym else seq

    return build


def _chain(axes: str, base: str = "naive"):
    """Table row for pi/3 corrections about ``axes`` (leftmost innermost)
    concatenated onto the builtin ``base``."""

    def build(target: Gate) -> PulseSequence:
        seq = build_builtin(base, target)
        for letter in axes:
            seq = pi3_correct(seq, LAB_AXES[letter.upper()])
        return seq

    return build


# Every builtin in listing order: name -> builder taking the target gate.
_BUILTINS = {
    "naive": naive,
    **{f"pi3:{a}": _chain(a) for a in LAB_AXES},
    "pi5": pi5_sequence,
    "b2": _about_x(b2),
    "b4": _about_x(b4),
    "b2sym": _about_x(b2, sym=True),
    "b4sym": _about_x(b4, sym=True),
    "pi3Y∘b2sym": _chain("Y", "b2sym"),
    "pi3Y∘b4sym": _chain("Y", "b4sym"),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def build_builtin(name: str, target: Optional[Gate] = None) -> PulseSequence:
    """Construct the builtin ``name`` for a target gate (default: pi pulse
    about x).  The result carries ``name``.

    ``concat:<AXES>[:<base>]`` chains pi/3 corrections (leftmost axis
    innermost) onto a base builtin, e.g. ``concat:XYY:naive`` or
    ``concat:Y:b2sym``.
    """
    if target is None:
        target = Gate(X_AXIS, Fraction(1, 2))
    if name.startswith("concat:"):
        _, axes, *base = name.split(":", 2)
        if not axes:
            raise SequenceError(f"bad concat spec {name!r}: expected concat:<AXES>[:<base>]")
        for letter in axes:
            if letter.upper() not in LAB_AXES:
                raise SequenceError(f"unknown correction axis {letter!r} in {name!r}")
        if base and base[0].startswith("concat:"):
            raise SequenceError("nested concat specs are not supported")
        builder = _chain(axes, *base)
    else:  # pi3:<A> takes its axis letter in either case
        builder = _BUILTINS.get("pi3:" + name[4:].upper() if name.startswith("pi3:") else name)
    if builder is None:
        raise SequenceError(f"unknown sequence {name!r} (builtins: {', '.join(BUILTIN_NAMES)})")
    return replace(builder(target), name=name)


# ---------------------------------------------------------------------------
# Text format
#
#   # sequence: <name>
#   # comment
#   target <nx> <ny> <nz> <p>/<q>
#   pulse <nx> <ny> <nz> <p>/<q> <role> <channel> [frame <9 numbers>]
#
# Angles are generator angles in units of pi, kept as exact rationals.
# The frame block is omitted for the exact identity triad.  A
# "# sequence:" comment before the target line names the sequence.
# Scalars are written with enough digits to round-trip bit-exactly at the
# current precision.


def _repr_digits() -> int:
    return mp.dps + 4


def format_scalar(x) -> str:
    return nstr(mpf(x), _repr_digits(), strip_zeros=True)


def _format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def serialize(seq: PulseSequence) -> str:
    lines = []
    if seq.name:
        lines.append(f"# sequence: {seq.name}")
    t = seq.target
    lines.append(
        "target "
        + " ".join(format_scalar(c) for c in t.axis)
        + " "
        + _format_fraction(t.alpha_pi)
    )
    for p in seq.pulses:
        parts = (
            ["pulse"]
            + [format_scalar(c) for c in p.axis_in_frame]
            + [_format_fraction(p.alpha_pi), p.role.value, p.channel]
        )
        if not p.frame.is_exact_identity():
            parts.append("frame")
            for v in (p.frame.ex, p.frame.ey, p.frame.ez):
                parts.extend(format_scalar(c) for c in v)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _tokenize(line: str):
    """Tokens with their 1-based start columns."""
    out = []
    pos = 0
    for tok in line.split():
        col = line.index(tok, pos)
        out.append((tok, col + 1))
        pos = col + len(tok)
    return out


def _parse_scalar(tok: str, lineno: int, col: int):
    try:
        val = mpf(tok)
    except ValueError:
        raise DslError(f"bad number {tok!r}", lineno, col) from None
    if not mp.isfinite(val):
        raise DslError(f"non-finite number {tok!r}", lineno, col)
    return val


_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_fraction(tok: str, lineno: int, col: int) -> Fraction:
    if not _FRACTION_RE.match(tok):
        raise DslError(f"bad rational angle {tok!r} (expected p/q)", lineno, col)
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise DslError(f"bad rational angle {tok!r} (zero denominator)", lineno, col) from None


_NAME_PREFIX = "# sequence:"


def parse(text: str) -> PulseSequence:
    """Parse the line-oriented sequence format; errors carry line and column.

    Pulses whose frame blocks have the same nine tokens share one
    :class:`FrameTriad`.
    """
    target = None
    pulses = []
    name = ""
    frames = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if target is None and not name and raw.lstrip().startswith(_NAME_PREFIX):
            name = raw.lstrip()[len(_NAME_PREFIX):].strip()
            continue
        line = raw.split("#", 1)[0]
        toks = _tokenize(line)
        if not toks:
            continue
        head, head_col = toks[0]
        if head == "target":
            if target is not None:
                raise DslError("duplicate target line", lineno, head_col)
            if len(toks) != 5:
                raise DslError("target needs axis (3 numbers) and angle p/q", lineno, head_col)
            axis = tuple(_parse_scalar(t, lineno, c) for t, c in toks[1:4])
            alpha = _parse_fraction(toks[4][0], lineno, toks[4][1])
            try:
                target = Gate(axis, alpha)
            except (su2.InvalidAxisError, SequenceError) as exc:
                raise DslError(str(exc), lineno, head_col) from None
        elif head == "pulse":
            if target is None:
                raise DslError("pulse before target line", lineno, head_col)
            if len(toks) not in (7, 17):
                raise DslError(
                    "pulse needs axis, angle, role, channel and optionally 'frame' + 9 numbers",
                    lineno,
                    head_col,
                )
            axis = tuple(_parse_scalar(t, lineno, c) for t, c in toks[1:4])
            alpha = _parse_fraction(toks[4][0], lineno, toks[4][1])
            role_tok, role_col = toks[5]
            try:
                role = Role(role_tok)
            except ValueError:
                raise DslError(f"unknown role {role_tok!r}", lineno, role_col) from None
            channel_tok, channel_col = toks[6]
            frame = FrameTriad.identity()
            if len(toks) == 17:
                kw, kw_col = toks[7]
                if kw != "frame":
                    raise DslError(f"expected 'frame', got {kw!r}", lineno, kw_col)
                key = tuple(t for t, _ in toks[8:17])
                frame = frames.get(key)
                if frame is None:
                    nums = [_parse_scalar(t, lineno, c) for t, c in toks[8:17]]
                    try:
                        frame = FrameTriad(tuple(nums[0:3]), tuple(nums[3:6]), tuple(nums[6:9]))
                    except SequenceError as exc:
                        raise DslError(str(exc), lineno, kw_col) from None
                    frames[key] = frame
            try:
                pulses.append(Pulse(frame, axis, alpha, role, channel_tok))
            except (su2.InvalidAxisError, SequenceError) as exc:
                col = channel_col if "channel" in str(exc) else toks[1][1]
                raise DslError(str(exc), lineno, col) from None
        else:
            raise DslError(f"unknown directive {head!r}", lineno, head_col)
    if target is None:
        raise DslError("missing target line", 1, 1)
    return PulseSequence(target, tuple(pulses), name=name)
