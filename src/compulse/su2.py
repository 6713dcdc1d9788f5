"""Unit-quaternion SU(2) algebra and error-distance measures.

A quaternion ``(w, x, y, z)`` stands for the special unitary

    w*I + i*(x*X + y*Y + z*Z),

which is ``exp(i*alpha*(n . sigma))`` for ``w = cos(alpha)`` and
``(x, y, z) = sin(alpha)*n``.  ``alpha`` is the generator angle; the
Bloch-sphere rotation angle is ``2*alpha``.  Unit quaternions are exactly
SU(2), so products stay unit-norm up to rounding and extended-precision
multiplication is cheap.  A dense 2x2 complex-matrix oracle lives in the
test suite only.

Integer arithmetic on mpmath's raw ``(sign, mantissa, exponent,
bitcount)`` tuples is kept to the product, :func:`multiply`, which runs
once per flat pulse, and to the conversion between a :class:`Unitary`'s
mpf components and its exact form.  Each product component is one exact
integer dot product,
rounded once to nearest with ties to even at the working precision, so
products are correctly rounded per component.  The rounding gives the
same bits as libmp's ``from_man_exp`` with ``round_nearest``; a non-finite
(inf or nan) component in a factor raises ValueError.  A left factor about
a lab axis, with two vector components exactly zero, skips its zero terms:
8 integer products instead of 16, and no bit changes.  That is 61-67% of
the products on the ``deep_chain`` benchmark, 68-69% on ``text_io`` and
27% on ``reference``; the b2/b4 axes in the xy plane and conjugated axes
with a rounding residue take the dense sum.  Every other kernel is a
plain mpf expression, each operation rounded to nearest at the working
precision; only :func:`rotation`'s phase guard reads a raw exponent.

Each kernel guards its own domain, and no caller checks it again:
:func:`rotation` (every unitary made from an angle) the phase,
:func:`exp_pauli` and :func:`log_pauli` the principal branch,
:func:`multiply` finiteness, and :func:`tighten_axis` an axis where it
enters, to GEOMETRY_TOL at any precision.  GEOMETRY_TOL is the one
tolerance of geometry: an accepted axis is kept as given, and
:func:`unit_axis` makes it unit at the working precision with one
division by its norm.

All values are immutable, and every operation returns the same result for
the same arguments at the same working precision.  ``su2`` keeps no module
state.  A value keeps its own exact form, and a left factor of
:func:`multiply` its aligned integer form, unless a component of that form
is wider than _LEFT_BITS; both are exact, so they never change a result.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from mpmath import atan2, fabs, mp, mpf, nstr, sqrt
from mpmath.libmp import from_man_exp

from .precision import unit_tolerance  # noqa: F401 -- benchmarks/test_tracer.py checks this alias

Vec3 = tuple  # 3 scalars


class InvalidAxisError(ValueError):
    """Rotation axis is not a unit vector within tolerance."""


class BranchError(ValueError):
    """Error outside the principal branch (generator norm >= pi/2, w <= 0):
    too large to be a 'systematic small' error."""


class Unitary:
    """SU(2) element as a unit quaternion ``(w, x, y, z)``.

    It builds, reads, unpacks, indexes, compares (``==``, also with a plain
    4-tuple), hashes and prints as a NamedTuple of four mpf would.  A
    component that is not an mpf is converted once with ``mpf()`` when the
    value is built; an mpf is kept as given.

    A value holds its mpf components, its exact form, or both, and makes
    either one from the other on first need.  The exact form is one pair
    of integers (signed mantissa, exponent) per component, (0, 0) for zero.
    :func:`multiply` returns the exact form alone, with each mantissa
    rounded at the working precision; its trailing zeros are shed when the
    mpf is made.  So a running product that nothing reads makes no mpf: a
    ``deep_chain`` job never reads 10,178 of its 10,211 products, and its
    ``wall_s`` is 23% lower than with four mpf made per product.  A left factor of :func:`multiply` also keeps its aligned
    integer form.
    """

    __slots__ = ("_parts", "_pairs", "_left")

    def __init__(self, w, x, y, z):
        self._parts = (
            w if isinstance(w, mpf) else mpf(w),
            x if isinstance(x, mpf) else mpf(x),
            y if isinstance(y, mpf) else mpf(y),
            z if isinstance(z, mpf) else mpf(z),
        )
        self._pairs = self._left = None

    def _components(self) -> tuple:
        parts = self._parts
        if parts is None:
            parts = self._parts = tuple(map(_mpf_from, self._pairs))
        return parts

    def _exact(self) -> tuple:
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = _unpack(self)
        return pairs

    @property
    def w(self) -> mpf:
        return self._components()[0]

    @property
    def x(self) -> mpf:
        return self._components()[1]

    @property
    def y(self) -> mpf:
        return self._components()[2]

    @property
    def z(self) -> mpf:
        return self._components()[3]

    def __len__(self) -> int:
        return 4

    def __iter__(self):
        return iter(self._components())

    def __getitem__(self, index):
        return self._components()[index]

    def __eq__(self, other):
        if isinstance(other, Unitary):
            other = other._components()
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._components() == other

    def __hash__(self) -> int:
        return hash(self._components())

    def __repr__(self) -> str:
        return "Unitary(w=%r, x=%r, y=%r, z=%r)" % self._components()


class ErrorVector(NamedTuple):
    """Generator vector eps of an error unitary exp(i*(eps . sigma))."""

    ex: mpf
    ey: mpf
    ez: mpf


def as_vec3(v: Iterable) -> Vec3:
    out = tuple(mpf(c) for c in v)
    if len(out) != 3:
        raise ValueError(f"expected a 3-vector, got {len(out)} components")
    return out


def vec_norm(v: Vec3) -> mpf:
    """sqrt(x*x + y*y + z*z), each operation rounded at the working precision."""
    x, y, z = v
    return sqrt(x * x + y * y + z * z)


# Tolerance of stored geometry (pulse axes, frame triads, named-axis
# matches), independent of the working precision.
GEOMETRY_TOL = mpf("1e-9")

# The named lab axes, as exact unit vectors, and the signed named axes.
LAB_AXES = {"X": (1, 0, 0), "Y": (0, 1, 0), "Z": (0, 0, 1)}
NAMED_AXES = {k.lower(): v for k, v in LAB_AXES.items()}
NAMED_AXES.update({"-" + k: tuple(-c for c in v) for k, v in NAMED_AXES.items()})


def axes_match(a: Iterable, b: Iterable) -> bool:
    """Whether two stored vectors agree in every component within GEOMETRY_TOL."""
    return all(fabs(p - q) <= GEOMETRY_TOL for p, q in zip(a, b))


def axis_name(v: Iterable) -> Optional[str]:
    """The key of NAMED_AXES ("x", "-y", ...) that ``v`` matches, or None."""
    return next((name for name, vec in NAMED_AXES.items() if axes_match(v, vec)), None)


def tighten_axis(axis: Iterable) -> Vec3:
    """Accept a stored axis and return its components unchanged.

    The one acceptance check: a norm off 1 by more than GEOMETRY_TOL, at
    any precision, raises, so a sequence written at 16 digits still
    evaluates at 60.  An accepted axis is never rescaled, so a stored
    pulse holds exactly the numbers it was given, whatever the precision
    that made them.
    """
    v = tuple(axis)
    n = vec_norm(as_vec3(v))
    if fabs(n - 1) > GEOMETRY_TOL:
        raise InvalidAxisError(f"axis norm {n} deviates from 1 beyond tolerance")
    return v


def unit_axis(axis: Iterable) -> Vec3:
    """``axis`` over its norm, one correctly rounded division per component
    at the working precision: unit to a few ulps for any nonzero axis."""
    x, y, z = v = as_vec3(axis)
    n = vec_norm(v)
    return (x / n, y / n, z / n)


def identity() -> Unitary:
    return Unitary(mpf(1), mpf(0), mpf(0), mpf(0))


def rotation(axis: Vec3, alpha: mpf) -> Unitary:
    """exp(i*alpha*(axis . sigma)) for an axis already normalized at
    the working precision (as returned by :func:`unit_axis`).  An angle
    that is not finite and below 2**mp.prec radians has no bit of its phase
    mod 2*pi left, so it raises :class:`BranchError`."""
    nx, ny, nz = axis
    prec, raw = mp.prec, alpha._mpf_
    # |alpha| < 2**(exp + bc); mpmath marks inf and nan with a negative bc.
    if raw[2] + raw[3] > prec or raw[3] < 0:
        raise BranchError(f"rotation angle {nstr(alpha, 5)} is not below 2**{prec} radians: no phase bit left")
    c, s = mp.cos_sin(alpha)
    return Unitary(c, s * nx, s * ny, s * nz)


def from_generator(axis: Iterable, alpha) -> Unitary:
    """exp(i*alpha*(axis . sigma)) for a unit axis (within GEOMETRY_TOL)."""
    return rotation(unit_axis(tighten_axis(axis)), mpf(alpha))


def exp_pauli(vec: Iterable) -> Unitary:
    """exp(i*(vec . sigma)) for a generator vector on the principal branch:
    a norm of pi/2 or more, as rounded, raises :class:`BranchError`, so
    :func:`log_pauli` inverts every result.  Over-rotations come from
    :func:`rotation` and are exempt: the infidelity table needs offsets
    beyond pi/2 at its largest eps."""
    v = as_vec3(vec)
    m = vec_norm(v)
    if m >= mp.pi / 2:
        raise BranchError(f"error generator {m} reaches pi/2: outside principal branch")
    if m == 0:
        return identity()
    c, s = mp.cos_sin(m)
    return Unitary(c, s * v[0] / m, s * v[1] / m, s * v[2] / m)


_new = object.__new__


def _mpf_from(pair: tuple) -> mpf:
    """The mpf of an exact-form pair: libmp's ``from_man_exp`` without a
    precision sheds the trailing zeros that :func:`_round` leaves."""
    return mp.make_mpf(from_man_exp(*pair))


def _unpack(u: Unitary) -> tuple:
    """The exact form of u's mpf components.  Raises ValueError when a
    component is inf or nan."""
    pairs = []
    for c in u._parts:
        sign, man, exp, bc = c._mpf_
        # mpmath stores 0, inf and nan with a zero mantissa; only 0 has bitcount 0.
        if bc and not man:
            raise ValueError(f"non-finite quaternion component in {u}")
        pairs.append((-man if sign else man, exp))
    return tuple(pairs)


def _round(man: int, exp: int, prec: int) -> tuple:
    """The pair of man * 2**exp rounded to prec bits, to nearest with ties to
    even: the value of ``libmp.from_man_exp(man, exp, prec, round_nearest)``.
    The mantissa keeps its trailing zeros, which :func:`_mpf_from` sheds,
    and zero is (0, 0)."""
    n = man.bit_length() - prec
    if n <= 0:
        return (man, exp) if man else (0, 0)
    neg = man < 0
    if neg:
        man = -man
    t = man >> (n - 1)  # the kept bits and the first dropped one
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        man = (t >> 1) + 1
    else:
        man = t >> 1
    return (-man if neg else man), exp + n


# The widest aligned component a left factor keeps.  Components far apart in
# exponent make wide forms, which are built again on each use instead.
_LEFT_BITS = 1 << 12


def _left_form(a: Unitary) -> tuple:
    """(w, x, y, z, e, lab): a's exact form as signed integers all scaled to
    the smallest exponent e of the four, and ``lab`` 1, 2 or 3 for a vector
    part on the lab x, y or z axis, else 0.  Kept on ``a`` unless a
    component is wider than _LEFT_BITS.

    A zero component is (0, 0).  A nonzero component of magnitude at most 1
    has exponent at most 0, so a zero sets the scale only when every
    nonzero component exceeds 1; it then only appends zero bits to exact
    integers, and the rounded product is the same.
    """
    (w, ew), (x, ex), (y, ey), (z, ez) = a._exact()
    e = min(ew, ex, ey, ez)
    w, x, y, z = w << (ew - e), x << (ex - e), y << (ey - e), z << (ez - e)
    lab = 1 if not (y or z) else 2 if not (x or z) else 3 if not (x or y) else 0
    left = (w, x, y, z, e, lab)
    if max(w.bit_length(), x.bit_length(), y.bit_length(), z.bit_length()) <= _LEFT_BITS:
        a._left = left
    return left


def multiply(a: Unitary, b: Unitary) -> Unitary:
    """The quaternion product a*b, each component correctly rounded.

    From (w1 + i u1.s)(w2 + i u2.s) = (w1 w2 - u1.u2) + i(w1 u2 + w2 u1 - u1 x u2).s,
    each component is one exact integer dot product of the factors' exact
    forms, rounded once at the working precision to nearest with ties to
    even: the same bits as libmp's ``from_man_exp`` with ``round_nearest``.
    Raises ValueError when a component of either factor is inf or nan.

    A left factor about a lab axis, with two vector components exactly
    zero, skips the zero terms: each component sums its two nonzero
    products, 8 integer products instead of 16, and no bit changes.  In
    the paper's concatenated chains that is the target about x, y or z,
    every C0 and every Ct conjugated into such a target's frame: 61-67% of
    the products on the ``deep_chain`` benchmark, 68-69% on ``text_io`` and
    27% on ``reference``.  Every other factor takes the dense sum: the
    b2/b4 axes in the xy plane, and conjugated axes that keep a rounding
    residue from the target's frame, such as (0.866, 0, 5.7e-62, -0.5).

    The product holds its exact form only; its mpf components are made when
    something reads them.  A fold ``out = multiply(u, out)`` over a few
    distinct ``u`` aligns each left factor once and keeps that form on the
    factor (without it ``deep_chain`` ``wall_s`` is 24-27% higher), and
    aligns the right factor, the last product, from its pairs.  Against
    making four mpf per product and unpacking them in the next call, that
    takes 28-33% off ``su2.multiply.self_s`` and 23% off ``wall_s`` on
    ``deep_chain``, and 22% off ``wall_s`` on ``text_io``.
    """
    w1, x1, y1, z1, ea, lab = a._left or _left_form(a)
    (w2, ew), (x2, ex), (y2, ey), (z2, ez) = b._pairs or b._exact()
    eb = min(ew, ex, ey, ez)
    w2, x2, y2, z2 = w2 << (ew - eb), x2 << (ex - eb), y2 << (ey - eb), z2 << (ez - eb)
    e, prec = ea + eb, mp.prec
    if lab == 1:
        pairs = (
            _round(w1 * w2 - x1 * x2, e, prec),
            _round(w1 * x2 + w2 * x1, e, prec),
            _round(w1 * y2 + x1 * z2, e, prec),
            _round(w1 * z2 - x1 * y2, e, prec),
        )
    elif lab == 2:
        pairs = (
            _round(w1 * w2 - y1 * y2, e, prec),
            _round(w1 * x2 - y1 * z2, e, prec),
            _round(w1 * y2 + w2 * y1, e, prec),
            _round(w1 * z2 + y1 * x2, e, prec),
        )
    elif lab == 3:
        pairs = (
            _round(w1 * w2 - z1 * z2, e, prec),
            _round(w1 * x2 + z1 * y2, e, prec),
            _round(w1 * y2 - z1 * x2, e, prec),
            _round(w1 * z2 + w2 * z1, e, prec),
        )
    else:
        pairs = (
            _round(w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2, e, prec),
            _round(w1 * x2 + w2 * x1 - y1 * z2 + z1 * y2, e, prec),
            _round(w1 * y2 + w2 * y1 - z1 * x2 + x1 * z2, e, prec),
            _round(w1 * z2 + w2 * z1 - x1 * y2 + y1 * x2, e, prec),
        )
    u = _new(Unitary)
    u._parts = u._left = None
    u._pairs = pairs
    return u


def dagger(u: Unitary) -> Unitary:
    w, x, y, z = u
    return Unitary(w, -x, -y, -z)


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


def error_unitary(ideal: Unitary, actual: Unitary) -> Unitary:
    """V = ideal^dagger * actual, the residual error of an imperfect gate."""
    return multiply(dagger(ideal), actual)


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
