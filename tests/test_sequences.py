from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import fabs, mp, mpf, pi

from compulse import su2
from compulse.error_models import AxisDependentPi3, CovariantVector, LinearOverRotation, PerChannel
from compulse.precision import unit_tolerance, working_digits
from compulse.sequences import (
    BUILTIN_NAMES,
    DslError,
    FrameTriad,
    Gate,
    Pulse,
    PulseSequence,
    Role,
    SequenceError,
    b2,
    b4,
    build_builtin,
    evaluate,
    naive,
    parse,
    parse_target,
    pi3_correct,
    pi5_sequence,
    serialize,
    symmetrize,
    total_angle,
)

X = (1, 0, 0)
Y = (0, 1, 0)
Z = (0, 0, 1)

X_PI = Gate(X, Fraction(1, 2))
Z_PI = Gate(Z, Fraction(1, 2))


def assert_sound(seq, tol=None):
    """Zero-error evaluation must reproduce the target up to global phase."""
    tol = tol if tol is not None else unit_tolerance()
    got = evaluate(seq, None)
    assert su2.infidelity(seq.ideal_unitary(), got) <= tol


class TestGateAndTarget:
    def test_parse_target_pi_pulse(self):
        g = parse_target("x-pi")
        assert g.alpha_pi == Fraction(1, 2)
        assert g.axis == (1, 0, 0)

    def test_parse_target_fractions(self):
        assert parse_target("z-pi/2").alpha_pi == Fraction(1, 4)
        assert parse_target("y-3pi/4").alpha_pi == Fraction(3, 8)
        assert parse_target("Y-2pi").alpha_pi == Fraction(1)

    @pytest.mark.parametrize("bad", ["pi", "w-pi", "x-2", "x-pi/0", "x-pi2"])
    def test_parse_target_rejects(self, bad):
        with pytest.raises(SequenceError):
            parse_target(bad)


class TestPi3Correct:
    def test_level1_sound_for_various_targets(self):
        for gate in (X_PI, Z_PI, Gate(Y, Fraction(1, 4)), Gate(su2.unit_vector((1, 1, 1)), Fraction(1, 3))):
            for axis in (X, Y, Z):
                assert_sound(pi3_correct(naive(gate), axis))

    def test_pulse_counts_through_level_six(self):
        # corrections 4, 16, 52, 160, 484, 1456; targets 3, 9, 27, 81, 243, 729
        want = [(3, 4), (9, 16), (27, 52), (81, 160), (243, 484), (729, 1456)]
        seq = naive(X_PI)
        for level, (wt, wc) in enumerate(want, start=1):
            seq = pi3_correct(seq, Y)
            assert seq.pulse_counts() == (wt, wc)

    def test_structure_matches_seven_slots(self):
        seq = pi3_correct(naive(X_PI), Y)
        roles = [p.role for p in seq.pulses]
        assert roles == [
            Role.CORRECTION_DAGGER,
            Role.TARGET,
            Role.CORRECTION,
            Role.TARGET_DAGGER,
            Role.CORRECTION,
            Role.TARGET,
            Role.CORRECTION_DAGGER,
        ]
        assert all(p.channel == "pi3" for p in seq.pulses if not p.role.is_target)
        assert all(p.alpha_pi in (Fraction(1, 6), Fraction(-1, 6)) for p in seq.pulses if not p.role.is_target)

    def test_conjugated_pulses_carry_target_frame(self):
        seq = pi3_correct(naive(Z_PI), X)
        u = Z_PI.unitary()
        f_u = FrameTriad.from_unitary(u)
        conjugated = [p for p in seq.pulses if not p.role.is_target and not p.frame.is_exact_identity()]
        assert len(conjugated) == 2
        for p in conjugated:
            for got_v, want_v in zip((p.frame.ex, p.frame.ey, p.frame.ez), (f_u.ex, f_u.ey, f_u.ez)):
                assert all(fabs(a - b) <= mpf("1e-15") for a, b in zip(got_v, want_v))

    def test_deep_concatenation_sound(self):
        seq = build_builtin("concat:XYZ", Z_PI)
        assert_sound(seq)

    def test_level1_x_correction_on_pure_z_error(self):
        # transverse error drops to higher order: the x component picks up
        # -sqrt(3)*eps^2 and the z component 2*eps^3 at leading order
        with working_digits(60):
            seq = pi3_correct(naive(Z_PI), X)
            model = PerChannel({"target": CovariantVector.constant((0, 0, 1))})
            ideal = seq.ideal_unitary()
            eps = mpf("1e-5")
            cx, cy, cz = su2.trace_components(ideal, evaluate(seq, model, eps, perfect_pi3=True))
            sqrt3 = mp.sqrt(3)
            assert fabs(cx / eps**2 + sqrt3) < mpf("1e-3")
            assert fabs(cz / eps**3 - 2) < mpf("1e-3")
            assert fabs(cy) < mpf("1e-40")


class TestPi5:
    def test_zero_error_equals_target(self):
        for gate in (Z_PI, Gate(Z, Fraction(1, 4)), X_PI):
            assert_sound(pi5_sequence(gate))

    def test_five_target_applications(self):
        seq = pi5_sequence(Z_PI)
        assert seq.pulse_counts()[0] == 5

    def test_perfect_flag_changes_channel(self):
        assert all(
            p.channel == "perfect" for p in pi5_sequence(Z_PI, perfect=True).pulses if not p.role.is_target
        )
        assert all(
            p.channel == "pi3" for p in pi5_sequence(Z_PI, perfect=False).pulses if not p.role.is_target
        )


class TestB2B4:
    def test_b2_zero_error(self):
        assert_sound(b2())

    def test_b4_zero_error(self):
        assert_sound(b4())

    def test_b2_total_angle_five_pi(self):
        assert total_angle(b2()) == Fraction(5)

    def test_b4_total_angle_fortyone_pi(self):
        assert total_angle(b4()) == Fraction(41)

    def test_b2_infidelity_at_tenth(self):
        with working_digits(60):
            seq = b2()
            got = su2.infidelity(seq.ideal_unitary(), evaluate(seq, LinearOverRotation(1), mpf("0.1")))
            assert fabs(got - mpf("4.6e-6")) < mpf("4.6e-6") * mpf("0.05")

    def test_b4_infidelity_at_hundredth_needs_extended_precision(self):
        with working_digits(60):
            seq = b4()
            got = su2.infidelity(seq.ideal_unitary(), evaluate(seq, LinearOverRotation(1), mpf("0.01")))
            assert fabs(got - mpf("1.7e-19")) < mpf("1.7e-19") * mpf("0.05")

    def test_b2_correction_phase(self):
        # cos(phi) = -1/4 for a pi rotation
        seq = b2()
        corr = seq.pulses[1]
        assert fabs(corr.axis_in_frame[0] + Fraction(1, 4)) < mpf("1e-15")

    def test_b4_pulse_count(self):
        assert len(b4().pulses) == 28

    def test_general_angle_is_sound(self):
        assert_sound(b2(Fraction(1, 2)))
        assert_sound(b4(Fraction(3, 2)))


class TestSymmetrize:
    def test_zero_error_preserved(self):
        assert_sound(symmetrize(b2()))
        assert_sound(symmetrize(b4()))

    def test_total_angle_unchanged(self):
        assert total_angle(symmetrize(b2())) == Fraction(5)
        assert total_angle(symmetrize(b4())) == Fraction(41)

    def test_half_pulses_bracket_the_block(self):
        seq = symmetrize(b2())
        assert seq.pulses[0].alpha_pi == Fraction(1, 4)
        assert seq.pulses[-1].alpha_pi == Fraction(1, 4)
        assert seq.pulses[0].role == Role.TARGET and seq.pulses[-1].role == Role.TARGET
        assert len(seq.pulses) == len(b2().pulses) + 1

    def test_rejects_non_b_family(self):
        with pytest.raises(SequenceError):
            symmetrize(pi3_correct(naive(X_PI), Y))
        with pytest.raises(SequenceError):
            symmetrize(PulseSequence(X_PI, ()))


class TestTotalAngle:
    def test_pi3_y_on_pi_pulse(self):
        # 3 pi + 4 * pi/3
        seq = build_builtin("pi3:Y")
        assert total_angle(seq) == Fraction(13, 3)

    def test_x_on_y_concatenation(self):
        seq = pi3_correct(build_builtin("pi3:Y"), X)
        assert total_angle(seq) == Fraction(43, 3)

    def test_empty_sequence(self):
        assert total_angle(PulseSequence(X_PI, ())) == 0

    def test_symmetrized_b2_with_y_correction(self):
        seq = build_builtin("pi3Y∘b2sym")
        assert total_angle(seq) == Fraction(49, 3)  # 15 pi + 4 pi/3


class TestEvaluate:
    def test_empty_sequence_is_identity(self):
        got = evaluate(PulseSequence(X_PI, ()), LinearOverRotation(1), mpf("0.1"))
        assert got == su2.identity()

    def test_perfect_pi3_bypasses_correction_channel(self):
        seq = build_builtin("pi3:Y")
        model = LinearOverRotation(1)
        noisy = evaluate(seq, model, mpf("0.01"))
        bypassed = evaluate(seq, model, mpf("0.01"), perfect_pi3=True)
        assert noisy != bypassed

    def test_naive_pi_pulse_table_value(self):
        seq = naive(X_PI)
        got = su2.infidelity(seq.ideal_unitary(), evaluate(seq, LinearOverRotation(1), mpf("0.003")))
        assert fabs(got - mpf("1.1e-5")) < mpf("1.1e-5") * mpf("0.05")

    def test_double_and_extended_precision_agree(self):
        # wherever the result is clear of the double-precision floor
        seq = build_builtin("pi3Y∘b2sym")
        vals = {}
        for digits in (16, 60):
            with working_digits(digits):
                w = evaluate(seq, LinearOverRotation(1), mpf("0.1"))
                vals[digits] = su2.infidelity(seq.ideal_unitary(), w)
        assert float(abs(vals[16] - vals[60])) < 1e-12
        assert fabs(vals[16] - vals[60]) < vals[60] * mpf("1e-4")

    @pytest.mark.parametrize("exact", [True, False], ids=["exact-text", "builtin"])
    def test_cached_geometry_follows_precision(self, exact):
        # One sequence object evaluated at 16, 60, then 16 digits must match,
        # bit for bit, a fresh object never evaluated before.  Exact text
        # parses to the same values at any precision, so its fresh copy is
        # parsed at the evaluation precision; builtin geometry depends on the
        # build precision, so its fresh copy is built at 16 digits too.
        def make():
            return parse(_EXACT_TEXT) if exact else build_builtin("pi3Y∘b4sym")

        models = (
            LinearOverRotation(1),
            PerChannel(
                {
                    "target": CovariantVector.constant((mpf("0.3"), mpf("-0.2"), mpf("0.1"))),
                    "pi3": AxisDependentPi3(mpf("0.5"), mpf("0.7")),
                }
            ),
        )
        with working_digits(16):
            seq = make()
        for digits in (16, 60, 16):
            with working_digits(digits if exact else 16):
                fresh = make()
            with working_digits(digits):
                for model in models:
                    assert evaluate(seq, model, mpf("0.01")) == evaluate(fresh, model, mpf("0.01"))


_EXACT_TEXT = """\
target 1 0 0 1/2
pulse 0 1 0 -1/6 correction_dagger pi3
pulse 1 0 0 1/2 target target
pulse 0 1 0 1/6 correction pi3 frame 1 0 0 0 -1 0 0 0 -1
pulse 1 0 0 -1/2 target_dagger target
pulse 0 0 1 1/3 correction target frame 0 1 0 -1 0 0 0 0 1
pulse 0 1 0 -1/6 correction_dagger pi3 frame 1 0 0 0 -1 0 0 0 -1
"""


class TestRegistry:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_all_builtins_sound(self, name):
        assert_sound(build_builtin(name))

    def test_concat_alias_matches_composed(self):
        a = build_builtin("pi3Y∘b2sym")
        b = build_builtin("concat:Y:b2sym")
        assert [p.alpha_pi for p in a.pulses] == [p.alpha_pi for p in b.pulses]

    def test_b_family_requires_x_target(self):
        with pytest.raises(SequenceError):
            build_builtin("b2", Z_PI)

    def test_unknown_name(self):
        with pytest.raises(SequenceError):
            build_builtin("nope")

    def test_bad_concat_axis(self):
        with pytest.raises(SequenceError):
            build_builtin("concat:XQ")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_builtin_carries_its_name(self, name):
        seq = build_builtin(name)
        assert seq.name == name
        assert parse(serialize(seq)).name == name

    def test_concat_base_may_be_any_builtin_but_a_concat_spec(self):
        assert len(build_builtin("concat:X:pi3:Y").pulses) == 25
        assert build_builtin("concat:Y:pi3Y∘b2sym").name == "concat:Y:pi3Y∘b2sym"
        with pytest.raises(SequenceError, match="nested"):
            build_builtin("concat:X:concat:Y")

    def test_pi3_axis_letter_in_either_case(self):
        seq = build_builtin("pi3:y")
        assert seq.name == "pi3:y"
        assert seq.pulses == build_builtin("pi3:Y").pulses


# ---------------------------------------------------------------------------
# Text format


def _frames_equal(a, b):
    return a.ex == b.ex and a.ey == b.ey and a.ez == b.ez


def _pulses_identical(p, q):
    return (
        p.alpha_pi == q.alpha_pi
        and p.role == q.role
        and p.channel == q.channel
        and p.axis_in_frame == q.axis_in_frame
        and _frames_equal(p.frame, q.frame)
    )


class TestDsl:
    @pytest.mark.parametrize("name", ["naive", "pi3:Y", "b4", "pi3Y∘b2sym", "pi5"])
    def test_serialize_parse_round_trip_bit_exact(self, name):
        seq = build_builtin(name)
        back = parse(serialize(seq))
        assert back.target.alpha_pi == seq.target.alpha_pi
        assert back.target.axis == seq.target.axis
        assert len(back.pulses) == len(seq.pulses)
        assert all(_pulses_identical(p, q) for p, q in zip(seq.pulses, back.pulses))

    def test_round_trip_evaluation_bit_exact(self):
        seq = build_builtin("pi3Y∘b4sym")
        back = parse(serialize(seq))
        model = LinearOverRotation(1)
        assert evaluate(seq, model, mpf("0.01")) == evaluate(back, model, mpf("0.01"))

    def test_round_trip_at_extended_precision(self):
        with working_digits(60):
            seq = build_builtin("pi3:Z", Gate(su2.unit_vector((2, 1, 2)), Fraction(1, 3)))
            back = parse(serialize(seq))
            assert all(_pulses_identical(p, q) for p, q in zip(seq.pulses, back.pulses))

    @pytest.mark.parametrize("name", ["pi3Y∘b4sym", "concat:XZ", "pi5"])
    def test_round_trip_keeps_name_target_and_pulses(self, name):
        seq = build_builtin(name)
        back = parse(serialize(seq))
        assert back.name == seq.name != ""
        assert back.target == seq.target
        assert back.pulses == seq.pulses

    def test_name_is_read_only_from_the_header(self):
        text = "# sequence: first\ntarget 1 0 0 1/2\n# sequence: second\n"
        assert parse(text).name == "first"
        assert parse("target 1 0 0 1/2\n# sequence: late\n").name == ""

    def test_parse_shares_frames_and_matches_built_pulses(self):
        seq = build_builtin("concat:XYZ")
        back = parse(serialize(seq))
        assert back.pulses == seq.pulses
        distinct = {(p.frame.ex, p.frame.ey, p.frame.ez) for p in seq.pulses}
        assert len({id(p.frame) for p in back.pulses}) == len(distinct) > 1
        assert all(p.frame is FrameTriad.identity() for p in back.pulses if p.frame.is_exact_identity())

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\ntarget 1.0 0.0 0.0 1/2\npulse 1.0 0.0 0.0 1/2 target target # trailing\n"
        seq = parse(text)
        assert len(seq.pulses) == 1

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("target 1.0 0.0 1/2\n", 1, 1),  # missing a component
            ("target 1.0 0.0 0.0 1/2\npulse 1.0 0.0 0.0 0.5 target target\n", 2, 19),  # angle not p/q
            ("target 1.0 0.0 0.0 1/2\npulse 1.0 0.0 0.0 1/2 boss target\n", 2, 23),  # bad role
            ("garbage\n", 1, 1),
            ("pulse 1.0 0.0 0.0 1/2 target target\n", 1, 1),  # pulse before target
            ("target 1.0 0.0 0.0 one\n", 1, 20),  # bad fraction
        ],
    )
    def test_errors_carry_line_and_column(self, text, line, col):
        with pytest.raises(DslError) as err:
            parse(text)
        assert err.value.line == line
        assert err.value.column == col

    def test_rejects_bad_channel(self):
        text = "target 1.0 0.0 0.0 1/2\npulse 1.0 0.0 0.0 1/2 target radio\n"
        with pytest.raises(DslError):
            parse(text)

    def test_missing_target(self):
        with pytest.raises(DslError):
            parse("# nothing here\n")

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
                    lambda v: sum(c * c for c in v) > 0.01
                ),
                st.fractions(min_value=Fraction(-3), max_value=Fraction(3)).filter(lambda f: f != 0),
                st.sampled_from(list(Role)),
                st.sampled_from(["target", "pi3", "perfect"]),
                st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 3)),
            ),
            min_size=0,
            max_size=6,
        )
    )
    def test_random_sequences_round_trip(self, specs):
        pulses = []
        for axis, alpha_pi, role, channel, gspec in specs:
            frame = FrameTriad.identity()
            if gspec[3] > 1.5:  # about half the pulses get a nontrivial frame
                gvec = gspec[0:3]
                if sum(c * c for c in gvec) > 0.01:
                    g = su2.from_generator(su2.unit_vector(gvec), mpf(gspec[3]))
                    frame = FrameTriad.from_unitary(g)
            pulses.append(Pulse(frame, su2.unit_vector(axis), alpha_pi, role, channel))
        seq = PulseSequence(X_PI, tuple(pulses))
        back = parse(serialize(seq))
        assert all(_pulses_identical(p, q) for p, q in zip(seq.pulses, back.pulses))
