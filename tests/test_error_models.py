import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import fabs, mp, mpf, pi

from compulse import su2
from compulse.error_models import (
    AxisDependentPi3,
    AxisOverRotation,
    CovariantVector,
    ErrorModel,
    LinearOverRotation,
    ModelConfigError,
    PerChannel,
    describe,
    parse_model,
)
from compulse.analysis import component_scan
from compulse.precision import unit_tolerance, working_digits
from compulse.sequences import (
    BUILTIN_NAMES,
    FrameOf,
    FrameTriad,
    Pulse,
    Role,
    SequenceError,
    build_builtin,
    evaluate,
    naive,
    parse_target,
    target_pulse,
)

import oracles
from oracles import invert_model_consistency

X = (1, 0, 0)
Y = (0, 1, 0)
Z = (0, 0, 1)


def make_pulse(axis=X, alpha_pi=Fraction(1, 2), role=Role.TARGET, channel="target", frame=None):
    return Pulse(frame or FrameTriad.identity(), axis, alpha_pi, role, channel)


def _bits(u):
    return tuple(c._mpf_ for c in u)


def q_close(a, b, tol=None):
    tol = tol if tol is not None else unit_tolerance()
    return all(fabs(p - q) <= tol for p, q in zip(a, b))


class TestLinearOverRotation:
    def test_zero_eps_is_ideal(self):
        p = make_pulse()
        assert LinearOverRotation(0).realize(p) == p.ideal_unitary()

    def test_pi_pulse_tenth_overrotation(self):
        p = make_pulse()
        got = LinearOverRotation(mpf("0.1")).realize(p)
        assert q_close(got, su2.from_generator(X, pi / 2 * mpf("1.1")))

    def test_scale_multiplies_coefficient(self):
        p = make_pulse()
        a = LinearOverRotation(1).realize(p, mpf("0.01"))
        b = LinearOverRotation(mpf("0.01")).realize(p, 1)
        assert q_close(a, b, tol=mpf("1e-30"))

    def test_negative_generator_scales_identically(self):
        p = make_pulse(alpha_pi=Fraction(-1, 2), role=Role.TARGET_DAGGER)
        got = LinearOverRotation(mpf("0.1")).realize(p)
        assert q_close(got, su2.from_generator(X, -pi / 2 * mpf("1.1")))

    def test_linear_in_scale_at_leading_order(self):
        # log of the realized error, divided by scale, converges as scale -> 0
        p = make_pulse(axis=Y, alpha_pi=Fraction(1, 3))
        model = LinearOverRotation(1)
        ratios = []
        for s in (mpf("1e-3"), mpf("1e-5")):
            err = su2.error_unitary(p.ideal_unitary(), model.realize(p, s))
            ratios.append(su2.vec_norm(su2.log_pauli(err)) / s)
        assert fabs(ratios[0] / ratios[1] - 1) < mpf("0.01")


class TestOverRotationBound:
    @pytest.mark.parametrize("digits", [16, 60])
    def test_angle_beyond_the_precision_raises_at_once(self, digits):
        with working_digits(digits):
            p = make_pulse()  # pi pulse: the angle is (1 + scale) * pi/2
            model = LinearOverRotation(1)
            start = time.perf_counter()
            for scale in (mpf("1e999999999999"), mpf(2) ** mp.prec, -mpf(2) ** (mp.prec + 1)):
                with pytest.raises(su2.BranchError, match="no phase bit left"):
                    model.realize(p, scale)
            assert time.perf_counter() - start < 1
            below = mpf(2) ** (mp.prec - 2)
            assert q_close(model.realize(p, below), su2.from_generator(X, (1 + below) * pi / 2))

    @pytest.mark.parametrize("digits", [16, 60])
    def test_scan_flags_the_row(self, digits):
        with working_digits(digits):
            seq = naive(target_pulse(X, Fraction(1, 2)))
            rows = component_scan(seq, LinearOverRotation(1), ["1e-3", "1e999999999999"]).rows
        # rows run from the largest scale down
        assert rows[0].error and rows[0].infidelity is None
        assert rows[1].error is None and rows[1].infidelity > 0


class TestAxisOverRotation:
    def test_quadratic_angle_dependence(self):
        # eps(theta) = c*theta^2: a pi pulse gains generator offset c*pi^2/2
        c = mpf("0.01")
        model = AxisOverRotation((0, 0, c))
        p = make_pulse()
        got = model.realize(p)
        want = su2.from_generator(X, pi / 2 + c * pi**2 / 2)
        assert q_close(got, want)

    def test_depends_on_unsigned_angle(self):
        c = mpf("0.02")
        model = AxisOverRotation((0, 0, c))
        fwd = make_pulse(alpha_pi=Fraction(1, 3), role=Role.CORRECTION, channel="pi3")
        assert invert_model_consistency(model, fwd)

    def test_constant_term_offsets_all_pulses(self):
        model = AxisOverRotation((mpf("0.05"),))
        p = make_pulse(alpha_pi=Fraction(1, 6))
        got = model.realize(p)
        assert q_close(got, su2.from_generator(X, pi / 6 + mpf("0.025")))

    def test_named_axis_uses_its_polynomial(self):
        model = AxisOverRotation(coeffs=(0,), per_axis={"y": (0, mpf("0.1"))})
        p = make_pulse(axis=Y)
        got = model.realize(p)
        assert q_close(got, su2.from_generator(Y, pi / 2 * mpf("1.1")))

    def test_unknown_axis_falls_back_to_base(self):
        model = AxisOverRotation(coeffs=(0, mpf("0.2")), per_axis={"y": (0,)})
        diag = oracles.unit_vector((1, 1, 0))
        p = make_pulse(axis=diag)
        got = model.realize(p)
        assert q_close(got, su2.from_generator(diag, pi / 2 * mpf("1.2")))

    def test_negative_rotation_matches_negated_axis_name(self):
        # a negative-angle pulse about y is a positive rotation about -y
        model = AxisOverRotation(coeffs=(0,), per_axis={"-y": (0, mpf("0.1"))})
        p = make_pulse(axis=Y, alpha_pi=Fraction(-1, 2), role=Role.TARGET)
        got = model.realize(p)
        assert q_close(got, su2.from_generator(Y, -pi / 2 * mpf("1.1")))

    def test_rejects_unknown_axis_name(self):
        with pytest.raises(ModelConfigError):
            AxisOverRotation(coeffs=(0,), per_axis={"w": (0,)})

    def test_per_axis_is_read_only(self):
        model = parse_model("model=poly coeffs=0,0.01 y=0,0.02 -z=0.003")
        with pytest.raises(TypeError):
            model.per_axis["x"] = (mpf("0.1"),)
        with pytest.raises(TypeError):
            del model.per_axis["y"]
        assert parse_model("model=" + describe(model)) == model


class TestCovariantVector:
    def test_constant_error_right_multiplies(self):
        model = CovariantVector.constant((mpf("0.01"), 0, 0))
        p = make_pulse(axis=Z, alpha_pi=Fraction(1, 4))
        got = model.realize(p)
        want = su2.multiply(p.ideal_unitary(), su2.exp_pauli((mpf("0.01"), 0, 0)))
        assert q_close(got, want)

    def test_frame_transport_identity(self):
        # a conjugated pulse carries the conjugated error: realize on the
        # transported frame equals u * realize(base) * u^dagger
        rng_angles = [("0.7", (0, 0, 1)), ("1.1", (0, 1, 0)), ("0.4", (1, 0, 0))]
        model = CovariantVector.constant((mpf("0.01"), mpf("-0.02"), mpf("0.005")))
        for alpha, axis in rng_angles:
            u = su2.from_generator(axis, mpf(alpha))
            base = make_pulse(axis=X, alpha_pi=Fraction(1, 6), role=Role.CORRECTION, channel="pi3")
            moved = Pulse(
                FrameTriad.from_unitary(u), X, Fraction(1, 6), Role.CORRECTION, "pi3"
            )
            got = model.realize(moved)
            want = oracles.conjugate_frame(model.realize(base), u)
            assert q_close(got, want)
            m_want = (
                oracles.to_matrix(u)
                @ oracles.to_matrix(model.realize(base))
                @ oracles.to_matrix(u).conj().T
            )
            assert oracles.max_abs_diff(oracles.to_matrix(got), m_want) < 1e-12

    def test_dagger_pulse_gets_daggered_error(self):
        model = CovariantVector.constant((0, mpf("0.03"), 0))
        fwd = make_pulse(axis=Z, alpha_pi=Fraction(1, 2))
        dag = fwd.daggered()
        got = model.realize(dag)
        assert q_close(got, su2.dagger(model.realize(fwd)))

    def test_angle_dependent_polynomial(self):
        # delta_x(theta) = 0.01*theta evaluated at the rotation angle
        model = CovariantVector((0, mpf("0.01")), (0,), (0,))
        p = make_pulse(axis=Z, alpha_pi=Fraction(1, 2))  # rotation angle pi
        got = model.realize(p)
        want = su2.multiply(p.ideal_unitary(), su2.exp_pauli((mpf("0.01") * pi, 0, 0)))
        assert q_close(got, want)

    def test_branch_overflow_raises(self):
        model = CovariantVector.constant((2, 0, 0))
        with pytest.raises(su2.BranchError):
            model.realize(make_pulse())


class TestRealizeMemo:
    def test_alternating_models_scales_and_precisions_match_fresh_pulses(self):
        with working_digits(16):
            frame = FrameTriad.from_unitary(su2.from_generator(Z, mpf("0.8")))
            p = Pulse(frame, oracles.unit_vector((1, 2, 3)), Fraction(1, 6), Role.CORRECTION, "pi3")
            models = (LinearOverRotation(mpf("0.1")), CovariantVector.constant((mpf("0.01"), 0, mpf("-0.02"))))
            scales = (mpf("0.5"), mpf("1e-4"))
            # every step changes one of digits, model and scale; each is taken twice
            walk = [(m, s) for i, m in enumerate(models) for s in (scales if i % 2 == 0 else scales[::-1])]
            cases = [
                (d, m, s) for i, d in enumerate((16, 60, 16)) for m, s in (walk if i % 2 == 0 else walk[::-1])
                for _ in range(2)
            ]
            fresh = [replace(p) for _ in cases]
        for (digits, model, scale), q in zip(cases, fresh):
            with working_digits(digits):
                for pulse, copy in ((p, q), (p.daggered(), q.daggered())):
                    assert model.realize(pulse, scale) == model.realize(copy, scale)

    def test_branch_error_is_raised_on_every_call(self):
        model = CovariantVector.constant((1, 0, 0))
        p = make_pulse()
        good, bad = mpf("0.01"), mpf(2)
        first = model.realize(p, good)
        for _ in range(3):
            with pytest.raises(su2.BranchError):
                model.realize(p, bad)
        assert model.realize(p, good) is first
        other = mpf("0.02")
        assert model.realize(p, other) == model.realize(replace(p), other)


class TestAxisDependentPi3:
    def test_applies_delta_to_plain_frame(self):
        model = AxisDependentPi3(mpf("0.01"), mpf("0.02"))
        p = make_pulse(axis=Y, alpha_pi=Fraction(1, 6), role=Role.CORRECTION, channel="pi3")
        assert q_close(model.realize(p), su2.from_generator(Y, pi / 6 + mpf("0.01")))

    def test_applies_delta_hat_to_conjugated_frame(self):
        model = AxisDependentPi3(mpf("0.01"), mpf("0.02"))
        u = su2.from_generator(Z, mpf("0.9"))
        p = Pulse(FrameTriad.from_unitary(u), Y, Fraction(1, 6), Role.CORRECTION, "pi3")
        want = su2.from_generator(su2.rotate_vector(u, Y), pi / 6 + mpf("0.02"))
        assert q_close(model.realize(p), want)

    @pytest.mark.parametrize("target,conjugated", [("x-0pi", False), ("x-2pi", False), ("x-pi", True)])
    def test_a_reference_to_the_target_is_classed_by_its_frame_numbers(self, target, conjugated):
        # A FrameOf whose target frame is numerically the identity (a 0 or
        # 2pi target) gets delta, like an unconjugated pulse.
        t = parse_target(target)
        ct = Pulse(FrameOf(t), Y, Fraction(1, 6), Role.CORRECTION, "pi3")
        assert ct.frame.is_identity() is not conjugated
        model = AxisDependentPi3(mpf("0.01"), mpf("0.02"))
        delta = mpf("0.02") if conjugated else mpf("0.01")
        assert q_close(model.realize(ct), su2.from_generator(ct.derived().axis, pi / 6 + delta))
        seq = build_builtin("pi3:Y", t)
        # Around an ideal target the four corrections lie on one axis once
        # conjugated, so under either class they give the target: bit for bit
        # at these precisions (see the next test).
        for digits in (16, 60, 200):
            with working_digits(digits):
                got = evaluate(seq, AxisDependentPi3(mpf("0.01"), mpf("0.02")))
                assert _bits(got) == _bits(t.ideal_unitary())
        # A target error keeps them apart, and the class shows.
        for digits in (60, 200):
            with working_digits(digits):
                drift = CovariantVector.constant((mpf("0.01"), mpf("0.02"), mpf("0.03")))
                a = evaluate(seq, PerChannel({"target": drift, "pi3": AxisDependentPi3(mpf("0.01"), mpf("0.02"))}))
                b = evaluate(seq, PerChannel({"target": drift, "pi3": AxisDependentPi3(mpf("0.01"), mpf("0.01"))}))
                if conjugated:
                    assert max(fabs(p - q) for p, q in zip(a, b)) > mpf(10) ** (2 - digits)
                else:
                    assert _bits(a) == _bits(b)

    @pytest.mark.parametrize("target", [f"{axis}-{k}pi" for axis in "xyz" for k in ("0", "", "2")])
    @pytest.mark.parametrize("name", ["pi3:X", "pi3:Y", "pi3:Z"])
    def test_one_level_around_a_lab_half_turn_is_the_target_to_rounding(self, name, target):
        # In exact arithmetic the four corrections cancel under any pi3
        # error.  The fold rounds products such as C0 * C0^, whose w is
        # c*c + s*s, so the result is the target within a few ulps, and the
        # target bit for bit only where those roundings come out exact: at
        # 16, 60 and 200 digits for all 27 cases, at 100 digits for none.
        seq = build_builtin(name, parse_target(target))
        for digits in (16, 23, 60, 100, 149, 200):
            with working_digits(digits):
                got = evaluate(seq, AxisDependentPi3(mpf("0.01"), mpf("0.02")))
                want = seq.ideal_unitary()
                assert max(fabs(p - q) for p, q in zip(got, want)) <= mp.ldexp(16, -mp.prec)
                if digits in (16, 60, 200):
                    assert _bits(got) == _bits(want)

    def test_leaves_target_channel_ideal(self):
        model = AxisDependentPi3(mpf("0.01"), mpf("0.02"))
        p = make_pulse()
        assert model.realize(p) == p.ideal_unitary()


class TestPerChannel:
    def test_dispatches_by_channel(self):
        model = PerChannel(
            {"target": LinearOverRotation(mpf("0.1")), "pi3": LinearOverRotation(mpf("0.2"))}
        )
        t = make_pulse()
        c = make_pulse(alpha_pi=Fraction(1, 6), role=Role.CORRECTION, channel="pi3")
        assert q_close(model.realize(t), su2.from_generator(X, pi / 2 * mpf("1.1")))
        assert q_close(model.realize(c), su2.from_generator(X, pi / 6 * mpf("1.2")))

    def test_unlisted_channel_stays_ideal(self):
        model = PerChannel({"pi3": LinearOverRotation(mpf("0.2"))})
        t = make_pulse()
        assert model.realize(t) == t.ideal_unitary()

    @pytest.mark.parametrize("models", [
        {"tagret": LinearOverRotation(mpf("0.1"))},
        {"perfect": LinearOverRotation(mpf("0.1"))},
        {"pi3": None},
        {"target": PerChannel({})},
    ])
    def test_rejects_unknown_channels_and_non_models(self, models):
        # a misspelt channel would otherwise leave every pulse ideal
        with pytest.raises(ModelConfigError):
            PerChannel(models)

    def test_the_perfect_channel_is_refused_by_name(self):
        with pytest.raises(ModelConfigError, match=r"^no model applies to channel 'perfect', only to target and pi3$"):
            PerChannel({"perfect": LinearOverRotation(mpf("0.1"))})

    def test_models_are_read_only(self):
        given = {"target": LinearOverRotation(mpf("0.1"))}
        model = PerChannel(given)
        given["pi3"] = LinearOverRotation(mpf("0.2"))
        assert set(model.models) == {"target"}
        with pytest.raises(TypeError):
            model.models["pi3"] = LinearOverRotation(mpf("0.2"))


_EVERY_KIND = {
    "linear": LinearOverRotation(mpf("0.1")),
    "poly": AxisOverRotation((0, mpf("0.1")), {"y": (mpf("0.2"),)}),
    "vector": CovariantVector.constant((mpf("0.01"), mpf("0.02"), mpf("-0.03"))),
    "axisdep": AxisDependentPi3(mpf("0.01"), mpf("0.02")),
    "channels": PerChannel({"target": LinearOverRotation(mpf("0.1")), "pi3": AxisDependentPi3(mpf("0.01"), 0)}),
}
_OUTSIDE_CHANNELS = [(kind, role, "perfect") for kind in _EVERY_KIND for role in Role] + [
    ("axisdep", Role.TARGET, "target"),
    ("axisdep", Role.TARGET_DAGGER, "target"),
]


class TestChannelsOutsideAKind:
    @pytest.mark.parametrize("digits", [16, 60])
    @pytest.mark.parametrize("kind,role,channel", _OUTSIDE_CHANNELS)
    def test_a_pulse_outside_the_kinds_channels_realizes_to_its_ideal_bits(self, digits, kind, role, channel):
        model = _EVERY_KIND[kind]
        assert channel not in model.CHANNELS
        frame = FrameTriad.from_unitary(su2.from_generator((mpf("0.6"), mpf("0.8"), 0), mpf("0.3")))
        with working_digits(digits):
            forward_role = role.partner if role.is_dagger else role
            forward = make_pulse((0, mpf("0.6"), mpf("0.8")), Fraction(1, 3), forward_role, channel, frame)
            pulse = forward.daggered() if role.is_dagger else forward
            for p in (pulse.daggered(), pulse):  # the partner first, then the pulse itself
                for scale in (1, mpf("0.5")):
                    assert [c._mpf_ for c in model.realize(p, scale)] == [c._mpf_ for c in p.ideal_unitary()]


_QUARTER_TURNS = [f"{axis}-{turn}" for axis in "xyz" for turn in ("pi/2", "-pi/2", "pi", "3pi/2", "2pi")]


class TestQuarterTurnTargets:
    @pytest.mark.parametrize("digits", [16, 60])
    @pytest.mark.parametrize("target", _QUARTER_TURNS)
    def test_frames_are_signed_permutations_and_conjugated_pulses_stay_on_lab_axes(self, target, digits):
        # A quarter-turn target's ideal is exact, so its conjugation frame has
        # exact zeros, and every pulse conjugated into it, ideal or
        # over-rotated, has two exactly zero vector components: the lab
        # branch of su2.multiply.  (A vector error tilts the axis.)
        t = parse_target(target)
        with working_digits(digits):
            for v in t.conjugation_frame().ex, t.conjugation_frame().ey, t.conjugation_frame().ez:
                assert sum(1 for c in v if c != 0) == 1 and max(map(fabs, v)) > mpf("0.99"), (target, v)
            models = [None] + [m for kind, m in _EVERY_KIND.items() if kind != "vector"]
            for name in BUILTIN_NAMES:
                try:
                    seq = build_builtin(name, t)
                except SequenceError:  # b2/b4 correct rotations about x only
                    continue
                for p in seq.pulses:
                    if not isinstance(p.frame, FrameOf):
                        continue
                    for model in models:
                        for scale in (1, mpf("0.01")):
                            u = p.ideal_unitary() if model is None else model.realize(p, scale)
                            assert su2._left_form(u)[5] != 0, (name, target, p, model)


class TestZeroError:
    @pytest.mark.parametrize("digits", [16, 60])
    @pytest.mark.parametrize("target", ["x-pi", "x-pi/2", "z-pi", "y-3pi/4", "x-2pi/3"])
    def test_every_kind_at_zero_evaluates_every_builtin_to_its_ideal_bits(self, target, digits):
        with working_digits(digits):
            zeros = [
                LinearOverRotation(0),
                AxisOverRotation((0, 0), {"x": (0,), "-y": (0, 0)}),
                CovariantVector.constant((0, 0, 0)),
                AxisDependentPi3(0, 0),
            ]
            zeros.append(PerChannel({"target": zeros[0], "pi3": zeros[3]}))
            zeros.append(PerChannel({"target": zeros[2], "pi3": zeros[1]}))
            for name in BUILTIN_NAMES + ("concat:XYZ",):
                try:
                    seq = build_builtin(name, parse_target(target))
                except SequenceError:  # b2/b4 correct rotations about x only
                    continue
                want = _bits(evaluate(seq, None))
                for model in zeros:
                    assert _bits(evaluate(seq, model)) == want, (name, describe(model))
                assert _bits(evaluate(seq, LinearOverRotation(1), 0)) == want, name


class TestOverRotationCovariance:
    @given(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
            lambda v: sum(c * c for c in v) > 0.01
        ),
        st.floats(-3, 3),
    )
    def test_conjugated_pulse_carries_conjugated_overrotation(self, gaxis, galpha):
        # axis-independent over-rotation is automatically covariant: realizing
        # the frame-transported pulse equals conjugating the realized base pulse
        model = LinearOverRotation(mpf("0.05"))
        u = su2.from_generator(oracles.unit_vector(gaxis), mpf(galpha))
        base = make_pulse(axis=Y, alpha_pi=Fraction(1, 6), role=Role.CORRECTION, channel="pi3")
        moved = Pulse(FrameTriad.from_unitary(u), Y, Fraction(1, 6), Role.CORRECTION, "pi3")
        got = model.realize(moved)
        want = oracles.conjugate_frame(model.realize(base), u)
        assert q_close(got, want, tol=mpf("1e-12"))


class _ForwardOnlyModel(ErrorModel):
    """Deliberately non-systematic: corrupts forward pulses, leaves inverses ideal."""

    def realize(self, pulse, scale=1):
        if pulse.role.is_dagger:
            return pulse.ideal_unitary()
        return LinearOverRotation(mpf("0.1")).realize(pulse, scale)


class TestDescribeUnlistedModel:
    def test_a_model_outside_the_config_kinds_is_named_by_its_class(self):
        model = _ForwardOnlyModel()
        assert describe(model) == "_ForwardOnlyModel"
        assert component_scan(naive(target_pulse(X, Fraction(1, 2))), model, [mpf("0.1")]).model == "_ForwardOnlyModel"


class TestInvertModelConsistency:
    @pytest.mark.parametrize(
        "model",
        [
            LinearOverRotation(mpf("0.07")),
            AxisOverRotation((0, mpf("0.01"), mpf("0.003"))),
            CovariantVector.constant((mpf("0.01"), mpf("0.02"), mpf("-0.01"))),
            AxisDependentPi3(mpf("0.01"), mpf("0.02")),
        ],
    )
    def test_systematic_families_are_invertible(self, model):
        pulses = [
            make_pulse(),
            make_pulse(axis=Y, alpha_pi=Fraction(1, 6), role=Role.CORRECTION, channel="pi3"),
            Pulse(
                FrameTriad.from_unitary(su2.from_generator(Z, mpf("0.8"))),
                Y,
                Fraction(1, 6),
                Role.CORRECTION,
                "pi3",
            ),
        ]
        for p in pulses:
            assert invert_model_consistency(model, p)

    def test_forward_only_model_is_caught(self):
        assert not invert_model_consistency(_ForwardOnlyModel(), make_pulse())

    @given(st.fractions(min_value=Fraction(1, 12), max_value=Fraction(2, 1)))
    def test_poly_invertible_for_random_angles(self, alpha_pi):
        model = AxisOverRotation((mpf("0.01"), mpf("0.005"), mpf("0.002")))
        p = make_pulse(alpha_pi=alpha_pi)
        assert invert_model_consistency(model, p)


# Coefficients as decimal text of up to 73 significant digits, magnitude in
# [1e-40, 0.49) or zero; models are built from them at the working precision.
NUMBER = st.one_of(
    st.just("0"),
    st.builds(
        "{}0.{}{}e{}".format,
        st.sampled_from(["", "-"]),
        st.integers(10, 48),
        st.integers(0, 10**70),
        st.integers(-39, 0),
    ),
)
COEFFS = st.lists(NUMBER, min_size=1, max_size=4)
ANY_MODEL = st.one_of(
    st.builds(lambda eps: lambda: LinearOverRotation(eps), NUMBER),
    st.builds(
        lambda c, per_axis: lambda: AxisOverRotation(c, per_axis),
        COEFFS,
        st.dictionaries(st.sampled_from(["x", "-x", "y", "-y", "z", "-z"]), COEFFS),
    ),
    st.builds(lambda dx, dy, dz: lambda: CovariantVector(dx, dy, dz), COEFFS, COEFFS, COEFFS),
    st.builds(
        lambda d, r, swap: lambda: _axisdep(d, r, swap),
        NUMBER,
        st.sampled_from(["0.2", "-0.5", "0.7312", "-1"]),
        st.booleans(),
    ),
)


# A channels model: any subset of the two channels, each with its own model.
CHANNEL_MODEL = st.dictionaries(st.sampled_from(["target", "pi3"]), ANY_MODEL).map(
    lambda builds: lambda: PerChannel({channel: build() for channel, build in builds.items()})
)


def _axisdep(delta, ratio, swap):
    # |deltahat/delta| is ratio or its inverse, inside the axisdep ratio rule
    pair = (mpf(delta), mpf(delta) * mpf(ratio))
    return AxisDependentPi3(*(pair[::-1] if swap else pair))


class TestParseModel:
    def test_linear(self):
        model = parse_model("model=linear eps=0.01")
        assert isinstance(model, LinearOverRotation)
        assert model.eps == mpf("0.01")

    def test_poly(self):
        model = parse_model("model=poly coeffs=0,0.01,0.003")
        assert model == AxisOverRotation((0, mpf("0.01"), mpf("0.003")))
        assert model.per_axis == {}

    def test_poly_per_axis_keys(self):
        model = parse_model("model=poly coeffs=0,0.01 y=0,0.02 -x=0.001")
        assert model.coeffs == (mpf(0), mpf("0.01"))
        assert model.per_axis == {"y": (mpf(0), mpf("0.02")), "-x": (mpf("0.001"),)}

    def test_vector_with_semicolons(self):
        model = parse_model("model=vector dx=0.01;dy=0;dz=0.002")
        assert isinstance(model, CovariantVector)
        assert model.dx == (mpf("0.01"),)
        assert model.dz == (mpf("0.002"),)

    def test_vector_polynomials(self):
        model = parse_model("model=vector dx=0,0.01;dy=0;dz=0")
        assert model.dx == (mpf(0), mpf("0.01"))

    def test_axisdep(self):
        model = parse_model("model=axisdep delta=0.01 deltahat=0.02")
        assert isinstance(model, AxisDependentPi3)
        assert (model.delta, model.delta_hat) == (mpf("0.01"), mpf("0.02"))

    @pytest.mark.parametrize(
        "text",
        [
            "eps=0.1",
            "model=linear",
            "model=linear eps=0.1 foo=2",
            "model=poly coeffs=abc",
            "model=nosuch eps=0.1",
            "model=linear eps=0.6",
            "model=axisdep delta=0.4 deltahat=0.6",
            "model=linear eps=0.1 eps=0.2",
            "model=linear eps=0.1,0.2",
            "model=poly y=0.1",
            "model=poly coeffs=0 w=0.1",
            "model=poly coeffs=0 -y=0,0.6",
            "model=poly coeffs=0 y=0.1 y=0.2",
            "model=vector dx=0.1;dy=nan",
            "model=channels target{linear eps=0.1} eps=0.1",
            "model=channels target{linear eps=0.1} target{linear eps=0.2}",
            "model=channels target{channels pi3{linear eps=0.1}}",
            "model=channels target{channels}",
            "model=channels perfect{linear eps=0.1}",
            "model=channels tagret{linear eps=0.1}",
            "model=channels target{linear eps=0.6}",
            "model=channels target{}",
        ],
    )
    def test_rejects_malformed_configs(self, text):
        with pytest.raises(ModelConfigError):
            parse_model(text)

    def test_rejects_axisdep_ratio_out_of_bounds(self):
        # the two over-rotations must be the same order of magnitude
        with pytest.raises(ModelConfigError):
            parse_model("model=axisdep delta=0.4 deltahat=0.002")
        parse_model("model=axisdep delta=0.1 deltahat=0.01")  # ratio 0.1 allowed
        parse_model("model=axisdep delta=0 deltahat=0.01")  # zero escapes the check

    @pytest.mark.parametrize(
        "make, key",
        [
            (lambda: AxisOverRotation(()), "coeffs"),
            (lambda: AxisOverRotation((0,), per_axis={"x": ()}), "x"),
            (lambda: CovariantVector((), (0,), (0,)), "dx"),
            (lambda: CovariantVector((0,), (0,), ()), "dz"),
        ],
    )
    def test_an_empty_coefficient_list_is_refused(self, make, key):
        # describe would print it as "coeffs=", which parse_model refuses
        with pytest.raises(ModelConfigError, match=f"^{key} needs at least one coefficient$"):
            make()

    def test_describe_round_trips_through_parse(self):
        for text in (
            "model=linear eps=0.01",
            "model=poly coeffs=0,0.01",
            "model=poly coeffs=0,0.01 y=0,0.02 -z=0.003",
            "model=vector dx=0.01;dy=0;dz=0.002",
            "model=axisdep delta=0.01 deltahat=0.02",
        ):
            model = parse_model(text)
            again = parse_model("model=" + describe(model))
            assert again == model

    def test_describe_prints_the_config_text(self):
        mp.dps = 60
        for text in (
            "linear eps=0.01",
            "linear eps=0.123456789",
            "poly coeffs=0.0,0.01,0.003",
            "poly coeffs=-1.0e-40 x=0.25 -y=0.0,0.02",
            "vector dx=0.01;dy=0.0;dz=-0.002",
            "axisdep delta=0.01 deltahat=0.02",
            "channels",
            "channels target{linear eps=0.1}",
            "channels pi3{axisdep delta=0.01 deltahat=0.02} target{vector dx=0.01;dy=0.0;dz=0.0}",
        ):
            assert describe(parse_model("model=" + text)) == text
        # channel blocks print in sorted order, whatever order they were given in
        model = PerChannel({"target": LinearOverRotation(mpf("0.1")), "pi3": LinearOverRotation(mpf("0.2"))})
        assert describe(model) == "channels pi3{linear eps=0.2} target{linear eps=0.1}"

    @pytest.mark.parametrize("digits", [16, 60])
    @given(st.one_of(ANY_MODEL, CHANNEL_MODEL))
    def test_describe_is_exact_inverse_of_parse(self, digits, build):
        mp.dps = digits
        model = build()
        assert parse_model("model=" + describe(model)) == model

