"""Independent oracles for the quaternion kernels, the error models and
number formatting, and the helpers that only the tests use.

The matrix oracles go through numpy 2x2 complex matrices at double
precision, deliberately sharing no code with the library under test.
:func:`invert_model_consistency` checks a model at the working precision
through nothing but its ``realize``.  :func:`multiply_from_man_exp` is the
former product kernel, which rounds through libmp's generic
``from_man_exp``; the library's integer rounding must match it bit for
bit.  :func:`vec_norm_expr`, :func:`frame_map_expr` and
:func:`covariant_generator_expr` are the former mpf-expression forms of
``su2.vec_norm``, ``FrameTriad.map`` and the lab error generator of
``CovariantVector``; the raw-tuple kernels must match them bit for bit.
:func:`unit_axis_expr` spells out the rule of ``su2.unit_axis`` in mpf
expressions.
:func:`format_sci_decimal` rounds an mpf's exact binary value to
decimal through the standard library's ``decimal``, sharing no code with
``analysis.format_sci``.  :func:`relabelled` carries an order rule about
x to another correction axis through explicit slot tables, sharing no
arithmetic with ``orders``.  The quaternion helpers at the end
(:func:`norm`, :func:`unit_vector`, :func:`conjugate_frame`,
:func:`phase_opt_trace_distance`, :func:`axis_distance`,
:func:`xy_error_axis`) are built on the library's kernels; no library code
needs them.
"""

from decimal import ROUND_HALF_UP, Context, Decimal, Inexact, localcontext

import numpy as np
from mpmath import fabs, mp, mpf, sqrt
from mpmath.libmp import from_man_exp, round_nearest

from compulse import su2
from compulse.precision import fit_floor, unit_tolerance
from compulse.sequences import evaluate

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def to_matrix(u) -> np.ndarray:
    """w*I + i(x*X + y*Y + z*Z) as a dense matrix."""
    w, x, y, z = (float(c) for c in u)
    return w * I2 + 1j * (x * SX + y * SY + z * SZ)


def matrix_exp_generator(axis, alpha) -> np.ndarray:
    """exp(i*alpha*(axis . sigma)) via eigendecomposition-free closed form."""
    ax = np.asarray([float(a) for a in axis])
    ax = ax / np.linalg.norm(ax)
    h = ax[0] * SX + ax[1] * SY + ax[2] * SZ
    return np.cos(float(alpha)) * I2 + 1j * np.sin(float(alpha)) * h


def random_unitary(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return q[0] * I2 + 1j * (q[1] * SX + q[2] * SY + q[3] * SZ)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def trace_distance_phase_swept(ideal, actual, n_phases=1001, stages=5) -> float:
    """Brute-force min over global phase of the nuclear norm of the difference.

    Sweeps a phase grid and recursively refines around the best point; the
    minimum sits at a kink, so each stage gains the full grid resolution.
    """
    a = to_matrix(ideal)
    b = to_matrix(actual)

    def sweep(center, halfwidth):
        phis = np.linspace(center - halfwidth, center + halfwidth, n_phases)
        norms = [
            np.linalg.svd(a - np.exp(1j * phi) * b, compute_uv=False).sum() for phi in phis
        ]
        k = int(np.argmin(norms))
        return phis[k], norms[k]

    center, best = 0.0, np.inf
    halfwidth = np.pi
    for _ in range(stages):
        center, best = sweep(center, halfwidth)
        halfwidth *= 4.0 / n_phases
    return float(best)


def invert_model_consistency(model, pulse) -> bool:
    """Check realize(inverse pulse) == dagger(realize(pulse)) within the
    working-precision tolerance; the dagger of w + i(x, y, z) is w - i(x, y, z)."""
    inv = model.realize(pulse.daggered())
    w, x, y, z = model.realize(pulse)
    tol = unit_tolerance()
    return all(fabs(a - b) <= tol for a, b in zip(inv, (w, -x, -y, -z)))


def format_sci_decimal(x, sig: int) -> str:
    """``x`` in scientific notation with ``sig`` significant digits, ties
    away from zero, through exact ``decimal`` arithmetic on its stored bits."""
    sign, man, exp, bc = x._mpf_
    if not man:
        return "0e+00"
    # man * 2**exp has at most bc + |exp| significant decimal digits
    with localcontext(Context(prec=bc + abs(exp) + 2, traps=[Inexact])):
        value = Decimal(-man if sign else man) * Decimal(2) ** exp
    rounded = Context(prec=sig, rounding=ROUND_HALF_UP).plus(value)
    mantissa, _, exponent = f"{rounded:.{sig - 1}e}".partition("e")
    return f"{mantissa}e{int(exponent):+03d}"


def _fixed_point_ref(u) -> tuple:
    parts = tuple(c._mpf_ for c in u)
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


def multiply_from_man_exp(a, b):
    """a*b with each component's exact integer dot product rounded by
    ``libmp.from_man_exp`` at the working precision (the former kernel)."""
    w1, x1, y1, z1, ea = _fixed_point_ref(a)
    w2, x2, y2, z2, eb = _fixed_point_ref(b)
    e, prec = ea + eb, mp.prec
    return su2.Unitary(
        *(
            mp.make_mpf(from_man_exp(man, e, prec, round_nearest))
            for man in (
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + w2 * x1 - y1 * z2 + z1 * y2,
                w1 * y2 + w2 * y1 - z1 * x2 + x1 * z2,
                w1 * z2 + w2 * z1 - x1 * y2 + y1 * x2,
            )
        )
    )


def vec_norm_expr(v) -> mpf:
    """sqrt(x*x + y*y + z*z) in mpf arithmetic (the former ``su2.vec_norm``)."""
    x, y, z = v
    return sqrt(x * x + y * y + z * z)


def frame_map_expr(frame, v) -> tuple:
    """vx*ex + vy*ey + vz*ez in mpf arithmetic (the former ``FrameTriad.map``)."""
    vx, vy, vz = su2.as_vec3(v)
    return tuple(vx * frame.ex[k] + vy * frame.ey[k] + vz * frame.ez[k] for k in range(3))


def unit_axis_expr(v) -> tuple:
    """The unit axis of ``v`` in mpf arithmetic: ``v`` over its norm, one
    division per component (the rule of ``su2.unit_axis``)."""
    x, y, z = (mpf(c) for c in v)
    n = sqrt(x * x + y * y + z * z)
    return x / n, y / n, z / n


def covariant_generator_expr(model, frame, alpha, scale) -> tuple:
    """The lab error generator of ``CovariantVector`` in mpf arithmetic:
    ``frame`` applied to scale * (dx, dy, dz) at theta = 2*|alpha|."""
    theta = 2 * fabs(alpha)

    def poly(coeffs):
        acc = mpf(0)
        for c in reversed(coeffs):
            acc = acc * theta + c
        return acc

    return frame_map_expr(frame, (scale * poly(model.dx), scale * poly(model.dy), scale * poly(model.dz)))


def norm(u) -> mpf:
    """Euclidean norm of a quaternion."""
    return sqrt(u.w**2 + u.x**2 + u.y**2 + u.z**2)


def unit_vector(v) -> tuple:
    """Scale an arbitrary nonzero vector to unit length."""
    v = su2.as_vec3(v)
    n = su2.vec_norm(v)
    if n == 0:
        raise su2.InvalidAxisError("zero vector has no direction")
    return (v[0] / n, v[1] / n, v[2] / n)


def conjugate_frame(u, g):
    """g * u * g^dagger: same generator angle, axis rotated by g."""
    return su2.multiply(su2.multiply(g, u), su2.dagger(g))


def phase_opt_trace_distance(ideal, actual) -> mpf:
    """min over global phase of the trace norm of (ideal - e^{i phi} actual).

    For the error quaternion V with generator magnitude m, the two singular
    values of I - e^{i phi} V are 2|sin((phi +/- m)/2)|.  Their sum is
    smallest at the kink phi = m, where it equals 2*sin(m) = 2*|vec(V)|,
    so the minimum is closed-form and cancellation-free.  The test suite
    checks it against :func:`trace_distance_phase_swept`.
    """
    v = su2.error_unitary(ideal, actual)
    return 2 * su2.vec_norm((v.x, v.y, v.z))


def axis_distance(ideal, actual, axis) -> mpf:
    """D_a = |v x a|^2 for the vector part v of the error quaternion
    ideal^dagger * actual and a unit lab axis a: 1 - |<a| ideal^dagger
    actual |a>|^2 on the +1 eigenstate |a> of a.sigma."""
    v = su2.error_unitary(ideal, actual)
    a = su2.as_vec3(axis)
    cross = (v.y * a[2] - v.z * a[1], v.z * a[0] - v.x * a[2], v.x * a[1] - v.y * a[0])
    return sum(c * c for c in cross)


class DegenerateDirectionError(ValueError):
    """The xy projection of the error is too small to define a direction."""


def xy_error_axis(seq, model, probe_scale) -> tuple:
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


# Correction about an axis is the x rule on the order triple read in these
# (x, y, z) indices, correction axis first; BACK_SLOTS places the rule's
# outputs back in (x, y, z) order.
SLOTS = {"X": (0, 1, 2), "Y": (1, 2, 0), "Z": (2, 0, 1)}
BACK_SLOTS = {"X": (0, 1, 2), "Y": (2, 0, 1), "Z": (1, 2, 0)}


def relabelled(rule_about_x, triple, axis: str) -> tuple:
    """``rule_about_x`` (a function of one triple) applied about ``axis``."""
    out = rule_about_x(tuple(triple[i] for i in SLOTS[axis]))
    return tuple(out[i] for i in BACK_SLOTS[axis])
