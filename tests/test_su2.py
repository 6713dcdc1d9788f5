import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import cos, fabs, mp, mpf, pi, sin

from compulse import su2
from compulse.precision import unit_tolerance, working_digits
from compulse.su2 import (
    BranchError,
    InvalidAxisError,
    Unitary,
    dagger,
    error_unitary,
    from_generator,
    identity,
    infidelity,
    log_pauli,
    multiply,
    rotate_vector,
    state_fidelity_error,
    trace_components,
)

import oracles
from oracles import conjugate_frame, phase_opt_trace_distance

X = (1, 0, 0)
Y = (0, 1, 0)
Z = (0, 0, 1)


def q_close(a, b, tol=None):
    tol = tol if tol is not None else unit_tolerance()
    return all(fabs(p - q) <= tol for p, q in zip(a, b))


unit_axes = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: 0.1 < sum(c * c for c in v) ** 0.5).map(oracles.unit_vector)

small_vecs = st.tuples(
    st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)
)

angles = st.floats(-3.1, 3.1)


def random_quaternion(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return Unitary(*(mpf(float(c)) for c in q))


class TestFromGenerator:
    def test_zero_angle_is_identity(self):
        assert from_generator(X, 0) == identity()

    def test_pi6_about_x(self):
        u = from_generator(X, pi / 6)
        assert q_close(u, (cos(pi / 6), sin(pi / 6), 0, 0))

    def test_half_pi_is_ix(self):
        u = from_generator(X, pi / 2)
        # equals the X gate up to the global phase i
        assert q_close(u, (0, 1, 0, 0))
        assert oracles.max_abs_diff(oracles.to_matrix(u), 1j * oracles.SX) < 1e-15

    def test_rejects_non_unit_axis(self):
        with pytest.raises(InvalidAxisError):
            from_generator((1, 1, 0), 0.3)

    @given(unit_axes, angles)
    def test_matches_matrix_oracle(self, axis, alpha):
        u = from_generator(axis, mpf(alpha))
        m = oracles.matrix_exp_generator(axis, alpha)
        assert oracles.max_abs_diff(oracles.to_matrix(u), m) < 1e-12


class TestAsVec3:
    def test_rejects_a_wrong_length(self):
        with pytest.raises(ValueError, match="expected a 3-vector, got 2 components"):
            su2.as_vec3((1, 2))


class TestNamedAxes:
    def test_each_signed_axis_is_named_within_the_geometry_tolerance(self):
        assert list(su2.NAMED_AXES) == ["x", "y", "z", "-x", "-y", "-z"]
        for name, vec in su2.NAMED_AXES.items():
            assert su2.axis_name(vec) == name
            assert su2.axis_name(tuple(c + mpf("9e-10") for c in vec)) == name
            assert su2.axis_name(tuple(c + mpf("2e-9") for c in vec)) is None

    def test_other_axes_have_no_name(self):
        assert su2.axis_name(oracles.unit_vector((1, 1, 0))) is None


class TestRotationPhaseGuard:
    @pytest.mark.parametrize("digits", [16, 60])
    def test_refuses_an_angle_without_a_phase_bit(self, digits):
        with working_digits(digits):
            top = mp.ldexp(1, mp.prec)
            for alpha in (top, -top, 2 * top, mpf("inf"), mpf("-inf"), mpf("nan")):
                with pytest.raises(BranchError, match="no phase bit left"):
                    su2.rotation((mpf(1), mpf(0), mpf(0)), alpha)

    @pytest.mark.parametrize("digits", [16, 60])
    def test_keeps_the_phase_just_below_two_to_the_precision(self, digits):
        with working_digits(digits):
            ulp = mp.ldexp(1, -mp.prec)
            for alpha in (mp.ldexp(1, mp.prec) - 1, 1 - mp.ldexp(1, mp.prec)):
                got = su2.rotation((mpf(0), mpf(1), mpf(0)), alpha)
                with mp.workprec(2 * mp.prec):
                    want = (cos(alpha), 0, sin(alpha), 0)
                assert all(fabs(g - w) <= ulp for g, w in zip(got, want))


class TestProduct:
    def test_u_times_dagger_is_identity(self):
        u = from_generator((0.6, 0.8, 0), 0.7)
        assert q_close(multiply(u, dagger(u)), identity())

    def test_thousand_random_products_match_matrix_oracle(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            a = random_quaternion(rng)
            b = random_quaternion(rng)
            got = oracles.to_matrix(multiply(a, b))
            want = oracles.to_matrix(a) @ oracles.to_matrix(b)
            assert oracles.max_abs_diff(got, want) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        u = identity()
        for _ in range(200):
            u = multiply(u, random_quaternion(rng))
        assert fabs(oracles.norm(u) - 1) < unit_tolerance()


class TestConjugateFrame:
    def test_x_pi_flips_y_rotation(self):
        # X Y X = -Y, so conjugating a y rotation by a pi pulse about x
        # negates its generator.
        u = from_generator(Y, pi / 6)
        g = from_generator(X, pi / 2)
        got = conjugate_frame(u, g)
        assert q_close(got, from_generator(Y, -pi / 6))
        want = oracles.to_matrix(g) @ oracles.to_matrix(u) @ oracles.to_matrix(g).conj().T
        assert oracles.max_abs_diff(oracles.to_matrix(got), want) < 1e-14

    def test_identity_frame_is_noop(self):
        u = from_generator((0, 0.6, 0.8), 1.1)
        assert conjugate_frame(u, identity()) == u

    @given(unit_axes, st.floats(0.01, 1.5), unit_axes, angles)
    def test_preserves_generator_angle(self, axis, alpha, gaxis, galpha):
        # for a unit quaternion w = cos(alpha) fixes the generator angle
        u = from_generator(axis, mpf(alpha))
        g = from_generator(gaxis, mpf(galpha))
        assert fabs(conjugate_frame(u, g).w - u.w) <= unit_tolerance()

    @given(unit_axes, angles, unit_axes, angles)
    def test_preserves_infidelity(self, axis_a, alpha_a, gaxis, galpha):
        a = from_generator(axis_a, mpf(alpha_a))
        b = from_generator((0, 0, 1), mpf("0.3"))
        g = from_generator(gaxis, mpf(galpha))
        direct = infidelity(a, b)
        conj = infidelity(conjugate_frame(a, g), conjugate_frame(b, g))
        assert fabs(direct - conj) < unit_tolerance()


class TestRotateVector:
    def test_matches_frame_conjugation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_quaternion(rng)
            v = tuple(mpf(float(c)) for c in rng.normal(size=3))
            r = rotate_vector(g, v)
            # g (v.sigma) g^dagger should equal (r.sigma)
            lhs = oracles.to_matrix(g) @ (
                float(v[0]) * oracles.SX + float(v[1]) * oracles.SY + float(v[2]) * oracles.SZ
            ) @ oracles.to_matrix(g).conj().T
            rhs = float(r[0]) * oracles.SX + float(r[1]) * oracles.SY + float(r[2]) * oracles.SZ
            assert oracles.max_abs_diff(lhs, rhs) < 1e-12


class TestErrorUnitary:
    def test_same_gate_gives_identity(self):
        u = from_generator((0.6, 0, 0.8), 0.9)
        assert q_close(error_unitary(u, u), identity())

    def test_right_factor_is_recovered(self):
        u = from_generator(Y, 0.4)
        v = from_generator(Z, mpf("0.1"))
        assert q_close(error_unitary(u, multiply(u, v)), v)

    def test_same_axis_overrotation(self):
        ideal = from_generator(X, pi / 2)
        actual = from_generator(X, pi / 2 * mpf("1.1"))
        got = error_unitary(ideal, actual)
        assert q_close(got, from_generator(X, mpf("0.05") * pi))
        want = oracles.to_matrix(ideal).conj().T @ oracles.to_matrix(actual)
        assert oracles.max_abs_diff(oracles.to_matrix(got), want) < 1e-14


class TestLogPauli:
    def test_identity_maps_to_zero(self):
        assert log_pauli(identity()) == (0, 0, 0)

    def test_z_generator(self):
        v = log_pauli(from_generator(Z, mpf("0.1")))
        assert q_close(v, (0, 0, mpf("0.1")), tol=mpf("1e-14"))

    def test_pi6_x_generator(self):
        v = log_pauli(from_generator(X, pi / 6))
        assert q_close(v, (pi / 6, 0, 0), tol=mpf("1e-14"))

    def test_rejects_large_error(self):
        with pytest.raises(BranchError):
            log_pauli(from_generator(X, 2.0))

    @given(small_vecs)
    def test_roundtrip_with_exp(self, vec):
        v = tuple(mpf(c) for c in vec)
        u = su2.exp_pauli(v)
        back = log_pauli(u)
        assert q_close(back, v)

    def test_tiny_errors_keep_relative_accuracy(self):
        with working_digits(60):
            v = (mpf("1e-25"), mpf("2e-25"), mpf("-1e-25"))
            back = log_pauli(su2.exp_pauli(v))
            for a, b in zip(back, v):
                assert fabs(a - b) <= fabs(b) * mpf("1e-40")


class TestTraceComponents:
    def test_zero_for_equal(self):
        u = from_generator(Y, 1.2)
        assert trace_components(u, u) == (0, 0, 0)

    def test_single_axis_error_is_two_sine(self):
        eps = mpf("0.01")
        got = trace_components(identity(), from_generator(X, eps))
        assert q_close(got, (2 * sin(eps), 0, 0), tol=mpf("1e-16"))

    def test_two_axis_error_against_matrix_trace(self):
        actual = su2.exp_pauli((mpf("0.01"), mpf("0.02"), mpf(0)))
        got = trace_components(identity(), actual)
        m = oracles.to_matrix(actual)
        for comp, sigma in zip(got, (oracles.SX, oracles.SY, oracles.SZ)):
            tr = np.trace(sigma @ m)
            assert abs(tr.real) < 1e-15
            assert abs(float(comp) - tr.imag) < 1e-14


class TestInfidelity:
    def test_zero_for_equal(self):
        u = from_generator((0, 0.8, 0.6), 0.35)
        assert infidelity(u, u) == 0

    def test_naive_pi_pulse_closed_form(self):
        # same-axis over-rotation: infidelity is 1 - cos(pi*eps/2)
        for eps in ("0.3", "0.1", "0.03", "0.01"):
            e = mpf(eps)
            ideal = from_generator(X, pi / 2)
            actual = from_generator(X, pi / 2 * (1 + e))
            want = 1 - cos(pi * e / 2)
            assert fabs(infidelity(ideal, actual) - want) < mpf("1e-14")

    def test_linear_overrotation_tenth(self):
        ideal = from_generator(X, pi / 2)
        actual = from_generator(X, pi / 2 * mpf("1.1"))
        val = infidelity(ideal, actual)
        assert fabs(val - mpf("1.2e-2")) < mpf("0.05e-2")

    def test_global_phase_invariant(self):
        u = from_generator(Z, 0.9)
        minus_u = Unitary(-u.w, -u.x, -u.y, -u.z)
        assert infidelity(u, minus_u) == 0

    @given(small_vecs)
    def test_quadratically_small_in_the_error_vector(self, vec):
        v = tuple(mpf(c) for c in vec)
        n2 = v[0] ** 2 + v[1] ** 2 + v[2] ** 2
        if n2 == 0:
            return
        val = infidelity(identity(), su2.exp_pauli(v))
        assert val / n2 <= mpf("0.5") + mpf("1e-12")

    def test_survives_below_double_precision(self):
        with working_digits(60):
            ideal = from_generator(X, pi / 2)
            actual = from_generator(X, pi / 2 * (1 + mpf("1e-20")))
            val = infidelity(ideal, actual)
            want = (pi / 2 * mpf("1e-20")) ** 2 / 2
            assert fabs(val - want) < want * mpf("1e-10")


class TestStateFidelityError:
    def test_zero_for_equal(self):
        u = from_generator(Y, 0.8)
        assert state_fidelity_error(u, u) == 0

    def test_x_rotations_are_invisible_on_plus(self):
        # |+/-> are x eigenstates, so a residual x rotation is pure phase
        assert state_fidelity_error(identity(), from_generator(X, 0.3)) < mpf("1e-30")

    def test_matches_statevector_oracle(self):
        rng = np.random.default_rng(11)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        for _ in range(25):
            ideal = random_quaternion(rng)
            actual = random_quaternion(rng)
            got = float(state_fidelity_error(ideal, actual))
            amp = plus.conj() @ (oracles.to_matrix(ideal).conj().T @ oracles.to_matrix(actual)) @ plus
            want = 1 - abs(amp) ** 2
            assert abs(got - want) < 1e-12

    def test_is_the_distance_about_x(self):
        # D_a = 1 - |<a|V|a>|^2 on the +1 eigenstate |a> of a.sigma; the
        # state fidelity error is D_x, bit for bit
        rng = np.random.default_rng(12)
        eigenstates = {X: [1, 1], Y: [1, 1j], Z: [1, 0]}
        for _ in range(25):
            ideal, actual = random_quaternion(rng), random_quaternion(rng)
            assert state_fidelity_error(ideal, actual) == oracles.axis_distance(ideal, actual, X)
            v = oracles.to_matrix(ideal).conj().T @ oracles.to_matrix(actual)
            for axis, state in eigenstates.items():
                ket = np.array(state, dtype=complex) / np.linalg.norm(state)
                want = 1 - abs(ket.conj() @ v @ ket) ** 2
                assert abs(float(oracles.axis_distance(ideal, actual, axis)) - want) < 1e-12


class TestPhaseOptTraceDistance:
    def test_zero_for_equal(self):
        u = from_generator(Z, 0.4)
        assert phase_opt_trace_distance(u, u) < mpf("1e-14")

    def test_zero_for_global_phase(self):
        u = identity()
        assert phase_opt_trace_distance(u, Unitary(mpf(-1), mpf(0), mpf(0), mpf(0))) < mpf("1e-14")

    @pytest.mark.parametrize(
        "axis,alpha",
        [(Z, "0.1"), (Y, "0.35"), ((0.6, 0, 0.8), "0.9"), (X, "0.02")],
    )
    def test_matches_phase_swept_svd_oracle(self, axis, alpha):
        ideal = identity()
        actual = from_generator(axis, mpf(alpha))
        got = float(phase_opt_trace_distance(ideal, actual))
        want = oracles.trace_distance_phase_swept(ideal, actual)
        assert abs(got - want) < 1e-6

    def test_same_leading_order_as_trace_components(self):
        # for a small transverse error both measures are ~2|eps|
        eps = mpf("1e-4")
        actual = from_generator(Z, eps)
        d = phase_opt_trace_distance(identity(), actual)
        comps = trace_components(identity(), actual)
        mag = (comps[0] ** 2 + comps[1] ** 2 + comps[2] ** 2) ** mpf("0.5")
        assert fabs(d - mag) < mag * mpf("1e-3")


class TestRoundtripPrecision:
    def test_generator_log_roundtrip_at_extended_precision(self):
        with working_digits(60):
            tol = unit_tolerance()
            axis = oracles.unit_vector((mpf("0.6"), mpf("0.64"), mpf("0.48")))
            u = from_generator(axis, mpf("0.77"))
            vec = log_pauli(u)
            again = su2.exp_pauli(vec)
            assert q_close(u, again, tol=tol)
