"""Unit-quaternion SU(2) algebra and error-distance measures.

A quaternion ``(w, x, y, z)`` stands for the special unitary

    w*I + i*(x*X + y*Y + z*Z),

which is ``exp(i*alpha*(n . sigma))`` for ``w = cos(alpha)`` and
``(x, y, z) = sin(alpha)*n``.  ``alpha`` is the generator angle; the
Bloch-sphere rotation angle is ``2*alpha``.  Unit quaternions are exactly
SU(2), so products stay unit-norm up to rounding and extended-precision
multiplication is cheap.  A dense 2x2 complex-matrix oracle lives in the
test suite only.

The per-pulse kernels (:func:`rotation`, :func:`dagger`, :func:`exp_pauli`,
:func:`multiply`) work on mpmath's raw ``(sign, mantissa, exponent,
bitcount)`` tuples.  Each component of a product is one exact integer dot
product, rounded once to nearest at the working precision, so products
are correctly rounded per component.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from mpmath import atan2, fabs, mp, mpf, sqrt
from mpmath.libmp import from_man_exp, mpf_cos_sin, mpf_div, mpf_mul, mpf_neg, round_nearest

from .precision import unit_tolerance

Vec3 = tuple  # 3 scalars


class InvalidAxisError(ValueError):
    """Rotation axis is not a unit vector within tolerance."""


class BranchError(ValueError):
    """Error unitary outside the principal branch (w <= 0): too large to be a
    'systematic small' error."""


class Unitary(NamedTuple):
    """SU(2) element as a unit quaternion."""

    w: mpf
    x: mpf
    y: mpf
    z: mpf


class AxisAngle(NamedTuple):
    """Rotation as unit axis plus generator angle (radians)."""

    axis: Vec3
    alpha: mpf


class ErrorVector(NamedTuple):
    """Generator vector eps of an error unitary exp(i*(eps . sigma))."""

    ex: mpf
    ey: mpf
    ez: mpf

    def norm(self) -> mpf:
        return sqrt(self.ex**2 + self.ey**2 + self.ez**2)


def as_vec3(v: Iterable) -> Vec3:
    out = tuple(mpf(c) for c in v)
    if len(out) != 3:
        raise ValueError(f"expected a 3-vector, got {len(out)} components")
    return out


def vec_norm(v: Vec3) -> mpf:
    x, y, z = v
    return sqrt(x * x + y * y + z * z)


def unit_vector(v: Iterable) -> Vec3:
    """Scale an arbitrary nonzero vector to unit length."""
    v = as_vec3(v)
    n = vec_norm(v)
    if n == 0:
        raise InvalidAxisError("zero vector has no direction")
    return (v[0] / n, v[1] / n, v[2] / n)


def normalized_axis(axis: Iterable) -> Vec3:
    """Validate a unit axis (within tolerance) and tighten its norm."""
    v = as_vec3(axis)
    n = vec_norm(v)
    if fabs(n - 1) > unit_tolerance():
        raise InvalidAxisError(f"axis norm {n} deviates from 1 beyond tolerance")
    return (v[0] / n, v[1] / n, v[2] / n)


# Tolerance of stored geometry (pulse axes, frame triads, named-axis
# matches), independent of the working precision.
GEOMETRY_TOL = mpf("1e-9")

# The named lab axes, as exact unit vectors.
LAB_AXES = {"X": (1, 0, 0), "Y": (0, 1, 0), "Z": (0, 0, 1)}


def tighten_axis(axis: Iterable) -> Vec3:
    """Accept a stored unit axis and renormalize it only when needed.

    Stored geometry (pulse axes, frames) is valid to a fixed tolerance
    regardless of precision, so a sequence written at 16 digits still
    evaluates at 60.  Within the working-precision tolerance the bits are
    left untouched, keeping same-precision round trips exact.
    """
    v = as_vec3(axis)
    n = vec_norm(v)
    dev = fabs(n - 1)
    if dev > GEOMETRY_TOL:
        raise InvalidAxisError(f"axis norm {n} deviates from 1 beyond tolerance")
    if dev > unit_tolerance():
        return (v[0] / n, v[1] / n, v[2] / n)
    return v


def identity() -> Unitary:
    return Unitary(mpf(1), mpf(0), mpf(0), mpf(0))


_make = mp.make_mpf


def rotation(unit_axis: Vec3, alpha: mpf) -> Unitary:
    """exp(i*alpha*(unit_axis . sigma)) for an axis already normalized at
    the working precision (as returned by :func:`normalized_axis`)."""
    nx, ny, nz = unit_axis
    prec = mp.prec
    c, s = mpf_cos_sin(alpha._mpf_, prec, round_nearest)
    return Unitary(
        _make(c),
        _make(mpf_mul(s, nx._mpf_, prec, round_nearest)),
        _make(mpf_mul(s, ny._mpf_, prec, round_nearest)),
        _make(mpf_mul(s, nz._mpf_, prec, round_nearest)),
    )


def from_generator(axis: Iterable, alpha) -> Unitary:
    """exp(i*alpha*(axis . sigma)) for a unit axis."""
    return rotation(normalized_axis(axis), mpf(alpha))


def exp_pauli(vec: Iterable) -> Unitary:
    """exp(i*(vec . sigma)) for an arbitrary (small) generator vector."""
    v = as_vec3(vec)
    m = vec_norm(v)
    if m == 0:
        return identity()
    prec, raw_m = mp.prec, m._mpf_
    c, s = mpf_cos_sin(raw_m, prec, round_nearest)
    return Unitary(
        _make(c),
        *(_make(mpf_div(mpf_mul(s, a._mpf_, prec, round_nearest), raw_m, prec, round_nearest)) for a in v),
    )


def _fixed_point(u: Unitary) -> tuple:
    """(w, x, y, z, e): signed integer mantissas of u's components, all
    scaled to the smallest exponent e of a nonzero component."""
    parts = (u[0]._mpf_, u[1]._mpf_, u[2]._mpf_, u[3]._mpf_)
    low = None
    for _, man, exp, bc in parts:
        if man:
            if low is None or exp < low:
                low = exp
        elif bc:  # mpmath stores inf and nan with a zero mantissa
            raise ValueError(f"non-finite quaternion component in {u}")
    if low is None:
        return 0, 0, 0, 0, 0
    w, x, y, z = [((-man if sign else man) << (exp - low)) if man else 0 for sign, man, exp, _ in parts]
    return w, x, y, z, low


def multiply(a: Unitary, b: Unitary) -> Unitary:
    # From (w1 + i u1.s)(w2 + i u2.s) = (w1 w2 - u1.u2) + i(w1 u2 + w2 u1 - u1 x u2).s
    # Each component is an exact integer dot product, rounded once.
    w1, x1, y1, z1, ea = _fixed_point(a)
    w2, x2, y2, z2, eb = _fixed_point(b)
    e, prec = ea + eb, mp.prec
    return Unitary(
        _make(from_man_exp(w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2, e, prec, round_nearest)),
        _make(from_man_exp(w1 * x2 + w2 * x1 - y1 * z2 + z1 * y2, e, prec, round_nearest)),
        _make(from_man_exp(w1 * y2 + w2 * y1 - z1 * x2 + x1 * z2, e, prec, round_nearest)),
        _make(from_man_exp(w1 * z2 + w2 * z1 - x1 * y2 + y1 * x2, e, prec, round_nearest)),
    )


def dagger(u: Unitary) -> Unitary:
    prec = mp.prec
    w, x, y, z = u
    return Unitary(
        w,
        _make(mpf_neg(x._mpf_, prec, round_nearest)),
        _make(mpf_neg(y._mpf_, prec, round_nearest)),
        _make(mpf_neg(z._mpf_, prec, round_nearest)),
    )


def conjugate_frame(u: Unitary, g: Unitary) -> Unitary:
    """g * u * g^dagger: same generator angle, axis rotated by g."""
    return multiply(multiply(g, u), dagger(g))


def rotate_vector(g: Unitary, v: Iterable) -> Vec3:
    """The SO(3) action of g: g (v.sigma) g^dagger = (rotate_vector(g,v)).sigma."""
    w = g.w
    ux, uy, uz = g.x, g.y, g.z
    vx, vy, vz = as_vec3(v)
    dot = ux * vx + uy * vy + uz * vz
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    k = w * w - (ux * ux + uy * uy + uz * uz)
    return (
        k * vx + 2 * dot * ux - 2 * w * cx,
        k * vy + 2 * dot * uy - 2 * w * cy,
        k * vz + 2 * dot * uz - 2 * w * cz,
    )


def norm(u: Unitary) -> mpf:
    return sqrt(u.w**2 + u.x**2 + u.y**2 + u.z**2)


def error_unitary(ideal: Unitary, actual: Unitary) -> Unitary:
    """V = ideal^dagger * actual, the residual error of an imperfect gate."""
    return multiply(dagger(ideal), actual)


def to_axis_angle(u: Unitary) -> AxisAngle:
    v = (u.x, u.y, u.z)
    m = vec_norm(v)
    if m == 0:
        return AxisAngle((mpf(1), mpf(0), mpf(0)), mpf(0))
    return AxisAngle((v[0] / m, v[1] / m, v[2] / m), atan2(m, u.w))


def log_pauli(v: Unitary) -> ErrorVector:
    """Generator vector of an error unitary on the principal branch.

    Requires w > 0 (generator norm below pi/2).  The magnitude is computed
    as atan2(|vec|, w) rather than acos(w): for tiny errors w rounds to 1
    and acos would lose everything, while the vector part keeps full
    relative accuracy.
    """
    if v.w <= 0:
        raise BranchError(f"quaternion scalar part {v.w} <= 0: outside principal branch")
    vec = (v.x, v.y, v.z)
    m = vec_norm(vec)
    if m == 0:
        return ErrorVector(mpf(0), mpf(0), mpf(0))
    a = atan2(m, v.w)
    return ErrorVector(a * vec[0] / m, a * vec[1] / m, a * vec[2] / m)


def trace_components(ideal: Unitary, actual: Unitary) -> tuple:
    """(tr(X V), tr(Y V), tr(Z V)) for V = ideal^dagger * actual.

    Each trace is purely imaginary; the returned triple is real with the
    factor i understood, i.e. (2*Vx, 2*Vy, 2*Vz).
    """
    v = error_unitary(ideal, actual)
    return (2 * v.x, 2 * v.y, 2 * v.z)


def infidelity(ideal: Unitary, actual: Unitary) -> mpf:
    """1 - |tr(ideal^dagger actual)| / 2, free of cancellation.

    Computed as (x^2 + y^2 + z^2) / (1 + |w|) on the error quaternion,
    which equals 1 - |w| on the unit sphere but keeps full relative
    accuracy when the error is far below one ulp of 1.
    """
    v = error_unitary(ideal, actual)
    s = v.x**2 + v.y**2 + v.z**2
    return s / (1 + fabs(v.w))


def state_fidelity_error(ideal: Unitary, actual: Unitary) -> mpf:
    """1 - |<s| ideal^dagger actual |s>|^2 on the x-axis eigenstates |s> = |+/->.

    Equals y^2 + z^2 of the error quaternion (same value for both signs).
    """
    v = error_unitary(ideal, actual)
    return v.y**2 + v.z**2


def phase_opt_trace_distance(ideal: Unitary, actual: Unitary) -> mpf:
    """min over global phase of the trace norm of (ideal - e^{i phi} actual).

    For the error quaternion V with generator magnitude m, the two singular
    values of I - e^{i phi} V are 2|sin((phi +/- m)/2)|.  Their sum is
    smallest at the kink phi = m, where it equals 2*sin(m) = 2*|vec(V)|,
    so the minimum is closed-form and cancellation-free.  The test suite
    checks it against a dense singular-value phase sweep.
    """
    v = error_unitary(ideal, actual)
    return 2 * vec_norm((v.x, v.y, v.z))
