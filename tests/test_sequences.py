import hashlib
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import fabs, mp, mpf, pi

from compulse import su2
from compulse.analysis import FAMILIES, axis_dependent_family, component_scan, series_coefficient
from compulse.error_models import (
    AxisDependentPi3,
    AxisOverRotation,
    CovariantVector,
    ErrorModel,
    LinearOverRotation,
    PerChannel,
    parse_model,
)
from compulse.precision import unit_tolerance, working_digits
from compulse import sequences
from compulse.sequences import (
    BUILTIN_NAMES,
    CHANNELS,
    MAX_PULSES,
    Z_AXIS,
    DslError,
    FrameOf,
    FrameTriad,
    Pulse,
    PulseSequence,
    Role,
    SequenceError,
    b2,
    b4,
    build_builtin,
    evaluate,
    format_scalar,
    naive,
    parse,
    parse_target,
    pi3_correct,
    pi5_sequence,
    pulse_count,
    serialize,
    symmetrize,
    target_pulse,
    total_angle,
)

import oracles

X = (1, 0, 0)
Y = (0, 1, 0)
Z = (0, 0, 1)

X_PI = target_pulse(X, Fraction(1, 2))
Z_PI = target_pulse(Z, Fraction(1, 2))


def assert_sound(seq, tol=None):
    """Zero-error evaluation must reproduce the target up to global phase."""
    tol = tol if tol is not None else unit_tolerance()
    got = evaluate(seq, None)
    assert su2.infidelity(seq.ideal_unitary(), got) <= tol


def _tilted_correction() -> Pulse:
    return Pulse(FrameTriad.identity(), oracles.unit_vector((1, 2, 3)), Fraction(1, 6), Role.CORRECTION, "pi3")


class TestPulseDagger:
    def test_partner_is_kept_at_a_fixed_precision(self):
        p = _tilted_correction()
        q = p.daggered()
        assert q is p.daggered()
        assert q.daggered() is p
        assert (q.alpha_pi, q.role) == (-p.alpha_pi, Role.CORRECTION_DAGGER)

    @pytest.mark.parametrize("made_at", [16, 60])
    def test_partner_keeps_the_link_and_axis_bits_at_every_precision(self, made_at):
        with working_digits(16):
            p = _tilted_correction()
        with working_digits(made_at):
            q = p.daggered()
        for digits in (16, 60, 16):
            with working_digits(digits):
                assert p.daggered() is q and q.daggered() is p
                assert [c._mpf_ for c in q.axis_in_frame] == [c._mpf_ for c in p.axis_in_frame]


class TestTarget:
    def test_parse_target_pi_pulse(self):
        t = parse_target("x-pi")
        assert t.alpha_pi == Fraction(1, 2)
        assert t.axis_in_frame == (1, 0, 0)
        assert (t.frame, t.role, t.channel) == (FrameTriad.identity(), Role.TARGET, "target")

    def test_parse_target_fractions(self):
        assert parse_target("z-pi/2").alpha_pi == Fraction(1, 4)
        assert parse_target("y-3pi/4").alpha_pi == Fraction(3, 8)
        assert parse_target("Y-2pi").alpha_pi == Fraction(1)

    def test_parse_target_signs(self):
        assert parse_target("x--pi").alpha_pi == Fraction(-1, 2)
        assert parse_target("x--2pi").alpha_pi == Fraction(-1)
        assert parse_target("x-+3pi/4").alpha_pi == Fraction(3, 8)
        assert parse_target("z-+pi/02").alpha_pi == Fraction(1, 4)

    @pytest.mark.parametrize(
        "bad", ["pi", "w-pi", "x-2", "x-pi/0", "x-pi/00", "x-pi2", "x-2pi/-3", "x-2pi/+3", "x---pi", "x-pi/", "xy-pi"]
    )
    def test_parse_target_rejects(self, bad):
        with pytest.raises(SequenceError):
            parse_target(bad)

    def test_target_built_at_low_precision_evaluates_like_its_pulse(self):
        # The tilted axis stored at 16 digits is off unit by more than the
        # 60-digit tolerance; the target derives its axis as a pulse does.
        with working_digits(16):
            gate = target_pulse(tuple(mpf(c) / 3 for c in (2, 1, 2)), Fraction(1, 3))
            seq = build_builtin("pi3:Z", gate)
        for digits in (16, 60):
            with working_digits(digits):
                assert seq.ideal_unitary() == evaluate(naive(gate), None)
        with working_digits(60):
            rows = component_scan(seq, LinearOverRotation(1), ["1e-3", "1e-2"]).rows
        assert all(row.error is None and row.infidelity > 0 for row in rows)

    def test_unitary_is_remade_when_precision_changes(self):
        axis = tuple(mpf(c) / 3 for c in (2, 1, 2))
        with working_digits(16):
            t, fresh = target_pulse(axis, Fraction(1, 3)), target_pulse(axis, Fraction(1, 3))
            low = t.ideal_unitary()
            assert t.ideal_unitary() is low
        with working_digits(60):
            high = t.ideal_unitary()
            assert high == fresh.ideal_unitary()
            assert high != low

    @pytest.mark.parametrize(
        "name, positions",
        [("naive", [0]), ("b2", [0]), ("b4", [0]), ("pi3:X", [1, 5]), ("pi5", [1, 5, 9])],
    )
    def test_target_pulse_is_applied_as_itself_with_one_frame_per_precision(self, name, positions):
        with working_digits(16):
            seq = build_builtin(name)
            t = seq.target
            assert t == parse_target("x-pi")
            assert [i for i, p in enumerate(seq.pulses) if p is t] == positions
            low = t.conjugation_frame()
            assert t.conjugation_frame() is low is t.derived().frame
            record = t.derived()
        with working_digits(60):
            assert t.derived() is not record
            high = t.conjugation_frame()
            assert high is not low and t.conjugation_frame() is high is t.derived().frame
            assert high == FrameTriad.from_unitary(t.ideal_unitary())


class TestPi3Correct:
    def test_level1_sound_for_various_targets(self):
        tilted = target_pulse(oracles.unit_vector((1, 1, 1)), Fraction(1, 3))
        for gate in (X_PI, Z_PI, target_pulse(Y, Fraction(1, 4)), tilted):
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

    def test_conjugated_pulses_refer_to_the_target(self):
        seq = pi3_correct(naive(Z_PI), X)
        conjugated = [p for p in seq.pulses if isinstance(p.frame, FrameOf)]
        assert len(conjugated) == 2 and all(p.frame.pulse is Z_PI for p in conjugated)
        assert all(p.frame == FrameTriad.identity() for p in seq.pulses if not isinstance(p.frame, FrameOf))
        for digits in (16, 60):
            with working_digits(digits):
                f_u = FrameTriad.from_unitary(Z_PI.ideal_unitary())
                for p in conjugated:
                    assert p.frame.map(p.axis_in_frame) == f_u.map(p.axis_in_frame)
                    assert p.derived().axis == su2.unit_axis(f_u.map(p.axis_in_frame))

    def test_deep_chain_shares_pulse_objects(self):
        seq = build_builtin("concat:XYZXYZXYZX")
        assert len(seq.pulses) == 177145
        assert len({id(p) for p in seq.pulses}) <= 100

    @pytest.mark.parametrize(
        "spec",
        ["concat:XYZXYZXYZXYZX", "concat:XYZXYZXYZX:b4sym", "concat:" + "X" * 20, "concat:XYZXYZXYZXYZ:pi3:X"],
    )
    def test_chain_beyond_pulse_limit_is_refused_before_building(self, spec):
        with pytest.raises(SequenceError, match=f"the limit is {MAX_PULSES}"):
            build_builtin(spec)

    def test_a_million_levels_are_refused_by_depth_at_once(self):
        start = time.perf_counter()
        with pytest.raises(SequenceError) as info:
            build_builtin("concat:" + "X" * 10**6)
        assert time.perf_counter() - start < 1
        assert str(info.value) == f"a chain of 1000000 levels is deeper than 12; the limit is {MAX_PULSES} pulses"

    def test_a_bad_axis_after_a_million_letters_is_named_by_its_position(self):
        start = time.perf_counter()
        with pytest.raises(SequenceError) as info:
            build_builtin("concat:" + "X" * 10**6 + "W")
        assert time.perf_counter() - start < 1
        message = str(info.value)
        assert len(message) < 200
        assert message == "unknown correction axis 'W' at position 1000001 of the concat axes"

    @pytest.mark.parametrize(
        "spec,quoted",
        [
            ("concat:", "'concat:'"),
            ("concat::" + "b" * 10**5, "'concat::" + "b" * 32 + "'… (100008 characters)"),
        ],
    )
    def test_a_bad_concat_spec_is_quoted_within_bounds(self, spec, quoted):
        with pytest.raises(SequenceError) as info:
            build_builtin(spec)
        assert str(info.value) == f"bad concat spec {quoted}: expected concat:<AXES>[:<base>]"

    def test_an_unknown_base_is_quoted_within_bounds(self):
        with pytest.raises(SequenceError) as info:
            build_builtin("concat:X:" + "q" * 10**5)
        assert str(info.value).startswith("unknown sequence '" + "q" * 40 + "'… (100000 characters) (builtins: naive, ")
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("base", ["naive", "pi5", "b2sym", "b4"])
    def test_pulse_count_closed_form(self, base):
        n = len(build_builtin(base).pulses)
        for levels in range(3):
            spec = f"concat:{'XYZ'[:levels]}:{base}" if levels else base
            assert len(build_builtin(spec).pulses) == pulse_count(levels, n)
        assert MAX_PULSES == pulse_count(12) == 1_594_321

    @pytest.mark.parametrize(
        "spec,flat",
        [("concat:X:pi3:y", "concat:YX"), ("concat:XY:pi3:x", "concat:XXY"), ("concat:Z:pi3Y∘b2sym", None)],
    )
    def test_chain_base_adds_its_levels_first(self, spec, flat):
        seq = build_builtin(spec)
        want = build_builtin(flat) if flat else pi3_correct(build_builtin("pi3Y∘b2sym"), Z_AXIS)
        assert seq.name == spec
        assert seq.pulses == want.pulses

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
            cx, cy, cz = su2.trace_components(ideal, evaluate(seq, model, eps))
            sqrt3 = mp.sqrt(3)
            assert fabs(cx / eps**2 + sqrt3) < mpf("1e-3")
            assert fabs(cz / eps**3 - 2) < mpf("1e-3")
            assert fabs(cy) < mpf("1e-40")


class TestPi5:
    def test_zero_error_equals_target(self):
        for gate in (Z_PI, target_pulse(Z, Fraction(1, 4)), X_PI):
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
        assert_sound(b2(X_PI))

    def test_b4_zero_error(self):
        assert_sound(b4(X_PI))

    def test_b2_total_angle_five_pi(self):
        assert total_angle(b2(X_PI)) == Fraction(5)

    def test_b4_total_angle_fortyone_pi(self):
        assert total_angle(b4(X_PI)) == Fraction(41)

    def test_b2_infidelity_at_tenth(self):
        with working_digits(60):
            seq = b2(X_PI)
            got = su2.infidelity(seq.ideal_unitary(), evaluate(seq, LinearOverRotation(1), mpf("0.1")))
            assert fabs(got - mpf("4.6e-6")) < mpf("4.6e-6") * mpf("0.05")

    def test_b4_infidelity_at_hundredth_needs_extended_precision(self):
        with working_digits(60):
            seq = b4(X_PI)
            got = su2.infidelity(seq.ideal_unitary(), evaluate(seq, LinearOverRotation(1), mpf("0.01")))
            assert fabs(got - mpf("1.7e-19")) < mpf("1.7e-19") * mpf("0.05")

    def test_b2_correction_phase(self):
        # cos(phi) = -1/4 for a pi rotation
        seq = b2(X_PI)
        corr = seq.pulses[1]
        assert fabs(corr.axis_in_frame[0] + Fraction(1, 4)) < mpf("1e-15")

    def test_b4_pulse_count(self):
        assert len(b4(X_PI).pulses) == 28

    def test_general_angle_is_sound(self):
        assert_sound(b2(target_pulse(X, Fraction(1, 4))))
        assert_sound(b4(target_pulse(X, Fraction(3, 4))))

    @pytest.mark.parametrize("theta", [Fraction(1), Fraction(3, 2), Fraction(-7, 3)])
    def test_correction_layouts(self, theta):
        block = [(1, Fraction(1, 2)), (3, Fraction(1)), (1, Fraction(1, 2))]
        middle = [(1, Fraction(-1)), (-1, Fraction(-2)), (1, Fraction(-1))]
        t = target_pulse(X, theta / 2)
        assert correction_layout(b2(t), 4) == block
        assert correction_layout(b4(t), 24) == block * 4 + middle + block * 4

    @pytest.mark.parametrize("name", ["b2", "b4", "b2sym", "b4sym"])
    def test_builds_at_16_and_60_digits_hold_equal_pulses(self, name):
        # The phase axes are read at the precision that compares or writes
        # them; test_scripts.py pins the bytes written at 16 and at 60.
        builds = {}
        for digits in (16, 60):
            with working_digits(digits):
                builds[digits] = build_builtin(name, parse_target("x-pi/2"))
        for digits in (16, 60):
            with working_digits(digits):
                assert builds[16].pulses == builds[60].pulses
                assert serialize(builds[16]) == serialize(builds[60])

    def test_repeated_layout_entries_share_a_pulse(self):
        assert len({id(p) for p in b2(X_PI).pulses}) == 3
        assert len({id(p) for p in b4(X_PI).pulses}) == 5

    def test_phase_bounds(self):
        assert_sound(b2(target_pulse(X, 2)))
        assert_sound(b4(target_pulse(X, 12)))
        with pytest.raises(SequenceError, match="b2 needs"):
            b2(target_pulse(X, Fraction(5, 2)))
        with pytest.raises(SequenceError, match="b4 needs"):
            b4(target_pulse(X, Fraction(25, 2)))

    def test_the_caller_target_is_the_head_pulse_and_the_target(self):
        t = parse_target("x-pi/2")
        for seq in (b2(t), b4(t), build_builtin("b2sym", t), build_builtin("concat:XY:b2sym", t)):
            assert seq.target is t
        assert b2(t).pulses[0] is t and b4(t).pulses[0] is t
        with pytest.raises(SequenceError, match="b2 corrects rotations about x; got axis Z"):
            b2(Z_PI)


def correction_layout(seq, span):
    """(phase multiple k, alpha_pi) of each correction pulse after the target
    pulse, where the pulse axis lies at phase k*phi in the xy plane and
    cos(phi) = -theta/(span*pi)."""
    theta = 2 * seq.target.alpha_pi
    phi = mp.acos(-mpf(theta.numerator) / theta.denominator / span)
    head, *rest = seq.pulses
    assert head.role == Role.TARGET and head.alpha_pi == seq.target.alpha_pi
    out = []
    for p in rest:
        assert p.role == Role.CORRECTION and p.channel == "target" and p.frame == FrameTriad.identity()
        ks = [
            k for k in (1, 3, -1)
            if all(fabs(a - b) < mpf("1e-12") for a, b in zip(p.axis_in_frame, (mp.cos(k * phi), mp.sin(k * phi), 0)))
        ]
        assert len(ks) == 1
        out.append((ks[0], p.alpha_pi))
    return out


class TestSymmetrize:
    def test_zero_error_preserved(self):
        assert_sound(symmetrize(b2(X_PI)))
        assert_sound(symmetrize(b4(X_PI)))

    def test_total_angle_unchanged(self):
        assert total_angle(symmetrize(b2(X_PI))) == Fraction(5)
        assert total_angle(symmetrize(b4(X_PI))) == Fraction(41)

    def test_half_pulses_bracket_the_block(self):
        seq = symmetrize(b2(X_PI))
        assert seq.pulses[0].alpha_pi == Fraction(1, 4)
        assert seq.pulses[-1].alpha_pi == Fraction(1, 4)
        assert seq.pulses[0].role == Role.TARGET and seq.pulses[-1].role == Role.TARGET
        assert len(seq.pulses) == len(b2(X_PI).pulses) + 1

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
        bypassed = evaluate(seq, PerChannel({"target": model}), mpf("0.01"))
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
        # and a builtin hold data that reads the same at any precision, so
        # the fresh copy is made at the evaluation precision.
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
            None,  # every pulse's kept ideal unitary
            PerChannel({"target": LinearOverRotation(1)}),
        )
        with working_digits(16):
            seq = make()
        for digits in (16, 60, 16):
            with working_digits(digits):
                fresh = make()
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


# One model of each kind with base coefficient c, built at the working precision.
_MODEL_KINDS = {
    "linear": lambda c: LinearOverRotation(c),
    "poly": lambda c: AxisOverRotation((c, c / 3), {"y": (0, 2 * c), "-x": (c / 5,)}),
    "vector": lambda c: CovariantVector((c,), (-c / 2, c / 4), (c / 7,)),
    "axisdep": lambda c: AxisDependentPi3(c, 2 * c),
    "perchannel": lambda c: PerChannel(
        {"target": CovariantVector.constant((c, -c, c / 3)), "pi3": AxisDependentPi3(c, c / 2)}
    ),
}


def _fresh_copies(seq: PulseSequence) -> PulseSequence:
    """``seq`` rebuilt from one never-realized pulse object per position."""
    return PulseSequence(seq.target, tuple(replace(p) for p in seq.pulses), seq.name)


def _count_calls(monkeypatch, cls, name) -> list:
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestRealizeMemo:
    @pytest.mark.parametrize("digits", [16, 60])
    @settings(max_examples=8)
    @given(
        axes=st.text(alphabet="XYZ", min_size=1, max_size=4),
        base_target=st.sampled_from([("naive", "x-pi"), ("naive", "z-pi"), ("naive", "y-pi/2"), ("b2", "x-pi")]),
        kinds=st.lists(st.sampled_from(sorted(_MODEL_KINDS)), min_size=1, max_size=2, unique=True),
        coeff=st.sampled_from(["0.02", "-0.013", "0.0007"]),
        scales=st.lists(st.sampled_from(["1", "0.3", "1e-3", "1e-9"]), min_size=1, max_size=2, unique=True),
    )
    def test_evaluate_matches_fresh_pulse_objects(self, digits, axes, base_target, kinds, coeff, scales):
        base, target = base_target
        with working_digits(digits):
            seq = build_builtin(f"concat:{axes}:{base}", parse_target(target))
            models = [_MODEL_KINDS[k](mpf(coeff)) for k in kinds]
            objects = [mpf(s) for s in scales]
            # a value-equal but distinct copy of each model and scale
            copies = [_MODEL_KINDS[k](mpf(coeff)) for k in kinds] + [mpf(s) for s in scales]
            twin = {id(x): y for x, y in zip(models + objects, copies)}
            # every step changes the model or the scale, never both; each is taken twice
            walk = [(m, s) for i, m in enumerate(models) for s in (objects if i % 2 == 0 else objects[::-1])]
            want = {(id(m), id(s)): evaluate(_fresh_copies(seq), m, s) for m, s in walk}
            for model, scale in [step for step in walk + walk[::-1] for _ in range(2)]:
                for m, s in ((model, scale), (twin[id(model)], scale), (twin[id(model)], twin[id(scale)])):
                    assert evaluate(seq, m, s) == want[id(model), id(scale)]

    def test_one_forward_corruption_per_dagger_pair(self, monkeypatch):
        seq = build_builtin("concat:XYYXY")
        assert (len(seq.pulses), len({id(p) for p in seq.pulses}), _dagger_pairs(seq)) == (727, 22, 11)
        realized = _count_calls(monkeypatch, ErrorModel, "realize")
        forward = _count_calls(monkeypatch, LinearOverRotation, "_forward")
        evaluate(seq, LinearOverRotation(1), mpf("1e-3"))
        assert (len(realized), len(forward)) == (727, 11)

    def test_chain_built_at_16_digits_corrupts_each_pair_once_at_60(self, monkeypatch):
        with working_digits(16):
            seq = build_builtin("concat:XYYXY")
            fresh = _fresh_copies(seq)
        with working_digits(60):
            model, scale = LinearOverRotation(1), mpf("1e-3")
            want = evaluate(fresh, model, scale)
            forward = _count_calls(monkeypatch, LinearOverRotation, "_forward")
            assert evaluate(seq, model, scale) == want
            assert len(forward) == 11

    def test_per_channel_mix_corrupts_each_dagger_pair_once(self, monkeypatch):
        seq = build_builtin("concat:XYYXY", Z_PI)
        model = _MODEL_KINDS["perchannel"](mpf("0.01"))
        realized = _count_calls(monkeypatch, ErrorModel, "realize")
        vector = _count_calls(monkeypatch, CovariantVector, "_forward")
        axisdep = _count_calls(monkeypatch, AxisDependentPi3, "_forward")
        evaluate(seq, model, mpf("1e-3"))
        assert len(realized) == len(seq.pulses)
        assert len(vector) + len(axisdep) == _dagger_pairs(seq) == 11
        assert vector and axisdep

    @pytest.mark.parametrize(
        "family, orders, component, calls",
        [
            ("target-vector", {"ey": 1, "ez": 2}, "y", (20, 0)),
            ("covariant", {"dy": 1, "ex": 1}, "y", (36, 0)),
            ("axisdep", {"d": 1, "ey": 1}, "y", (4, 32)),
        ],
    )
    def test_series_coefficient_corrupts_each_channel_model_value_once(
        self, monkeypatch, family, orders, component, calls
    ):
        # consecutive stencil points that leave a channel's model unchanged
        # share its corruptions, so only model changes cost a _forward call
        seq = build_builtin("pi3:X", Z_PI)
        vector = _count_calls(monkeypatch, CovariantVector, "_forward")
        axisdep = _count_calls(monkeypatch, AxisDependentPi3, "_forward")
        with working_digits(60):
            series_coefficient(seq, FAMILIES[family](), orders, component)
        assert (len(vector), len(axisdep)) == calls

    def test_parsed_file_corrupts_each_dagger_pair_once(self, monkeypatch):
        with working_digits(16):
            text = serialize(build_builtin("concat:XYZXYZ"))
        with working_digits(60):
            seq = parse(text)
            model, scale = LinearOverRotation(1), mpf("1e-3")
            want = evaluate(_fresh_copies(seq), model, scale)
            forward = _count_calls(monkeypatch, LinearOverRotation, "_forward")
            assert evaluate(seq, model, scale) == want
            assert len(forward) == 7
        assert (len(seq.pulses), len({id(p) for p in seq.pulses}), _dagger_pairs(seq)) == (2185, 14, 7)

    def test_stencil_point_of_a_series_coefficient_corrupts_three_pairs(self, monkeypatch):
        seq = build_builtin("pi3:X", Z_PI)
        model = axis_dependent_family().build([mpf("1e-3")] * 5)
        vector = _count_calls(monkeypatch, CovariantVector, "_forward")
        axisdep = _count_calls(monkeypatch, AxisDependentPi3, "_forward")
        evaluate(seq, model, 1)
        assert (len(vector), len(axisdep)) == (1, 2)


def _distinct(seq: PulseSequence) -> list:
    return list({id(p): p for p in seq.pulses}.values())


def _dagger_pairs(seq: PulseSequence) -> int:
    return len({frozenset((id(p), id(p.daggered()))) for p in seq.pulses})


class TestDaggerPairSharing:
    @pytest.mark.parametrize("digits", [16, 60])
    @pytest.mark.parametrize("kind", sorted(_MODEL_KINDS))
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_partner_realization_is_the_exact_dagger(self, name, kind, digits):
        with working_digits(digits):
            model, scale = _MODEL_KINDS[kind](mpf("-0.013")), mpf("0.7")
            for partner_first in (False, True):
                for p in _distinct(build_builtin(name)):
                    q = p.daggered()
                    first, second = (q, p) if partner_first else (p, q)
                    u, v = model.realize(first, scale), model.realize(second, scale)
                    assert v == su2.dagger(u)
                    # unlinked copies are corrupted on their own
                    assert (u, v) == (model.realize(replace(first), scale), model.realize(replace(second), scale))

    def test_pair_is_corrupted_once_at_each_precision(self, monkeypatch):
        with working_digits(16):
            p = _tilted_correction()
        model, scale = LinearOverRotation(mpf("0.01")), mpf(1)
        forward = _count_calls(monkeypatch, LinearOverRotation, "_forward")
        for n, digits in enumerate((16, 60, 16), start=1):
            with working_digits(digits):
                q = p.daggered()
                assert q.daggered() is p
                assert [c._mpf_ for c in q.axis_in_frame] == [c._mpf_ for c in p.axis_in_frame]
                assert model.realize(q, scale) == su2.dagger(model.realize(p, scale))
                assert len(forward) == n

    @settings(max_examples=20, deadline=None)
    @given(
        axis=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: sum(c * c for c in v) > 0.01),
        gaxis=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: sum(c * c for c in v) > 0.01),
        galpha=st.floats(0.05, 3),  # keeps the frame away from the identity
        alpha_pi=st.fractions(-2, 2, max_denominator=24),
        role=st.sampled_from([Role.TARGET, Role.CORRECTION]),
        channel=st.sampled_from(CHANNELS),
    )
    def test_dagger_realizes_as_the_exact_dagger(self, axis, gaxis, galpha, alpha_pi, role, channel):
        with working_digits(16):
            frame = FrameTriad.from_unitary(su2.from_generator(oracles.unit_vector(gaxis), mpf(galpha)))
            axis = oracles.unit_vector(axis)
        for digits in (16, 60):
            for partner_first in (False, True):
                # a pulse built at 16 digits and daggered first at ``digits``
                with working_digits(16):
                    p = Pulse(frame, axis, alpha_pi, role, channel)
                with working_digits(digits):
                    q = p.daggered()
                    for kind, make in sorted(_MODEL_KINDS.items()):
                        model, scale = make(mpf("-0.013")), mpf("0.7")
                        for pulse in (q, p) if partner_first else (p, q):
                            model.realize(pulse, scale)
                        assert model.realize(q, scale) == su2.dagger(model.realize(p, scale)), kind

    @settings(max_examples=30, deadline=None)
    @given(
        axis=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: sum(c * c for c in v) > 0.01),
        gaxis=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: sum(c * c for c in v) > 0.01),
        galpha=st.floats(0, 3),
        alpha_pi=st.fractions(-2, 2, max_denominator=24),
        role=st.sampled_from([Role.TARGET, Role.CORRECTION]),
        digits=st.sampled_from([(16, 16), (60, 60), (16, 60), (60, 16)]),
        partner_first=st.booleans(),
    )
    def test_partner_derives_the_bits_of_a_derivation_from_scratch(
        self, axis, gaxis, galpha, alpha_pi, role, digits, partner_first
    ):
        build, derive = digits  # built at one precision, derived at another
        with working_digits(build):
            frame = FrameTriad.from_unitary(su2.from_generator(oracles.unit_vector(gaxis), mpf(galpha)))
            p = Pulse(frame, oracles.unit_vector(axis), alpha_pi, role, "pi3")
        with working_digits(derive):
            q = p.daggered()
            for pulse in (q, p) if partner_first else (p, q):
                record = pulse.derived()
                lab = oracles.frame_map_expr(pulse.frame, pulse.axis_in_frame)
                want_axis = oracles.unit_axis_expr(lab)
                want_alpha = mp.pi * pulse.alpha_pi.numerator / pulse.alpha_pi.denominator
                assert [c._mpf_ for c in record.axis] == [c._mpf_ for c in want_axis]
                assert record.alpha._mpf_ == want_alpha._mpf_
            assert [c._mpf_ for c in q.derived().axis] == [c._mpf_ for c in p.derived().axis]
            assert q.derived().alpha._mpf_ == (-p.derived().alpha)._mpf_

    @pytest.mark.parametrize(
        "line, linked",
        [
            ("pulse 0 1 0 1/6 correction pi3", True),
            ("pulse 0 1 0 1/6 correction target", False),
            ("pulse 0 1 0 1/3 correction pi3", False),
            ("pulse 0 1 0 1/6 target pi3", False),
            ("pulse 0 -1 0 1/6 correction pi3", False),
            ("pulse 0 1 0 1/6 correction pi3 frame 1 0 0 0 -1 0 0 0 -1", False),
        ],
    )
    def test_parse_links_a_dagger_line_only_to_its_forward_line(self, line, linked):
        dagger, other = parse(f"target 1 0 0 1/2\npulse 0 1 0 -1/6 correction_dagger pi3\n{line}\n").pulses
        assert (dagger.daggered() is other) == linked
        assert dagger.daggered().daggered() is dagger

    @pytest.mark.parametrize("digits", [16, 60])
    def test_parsed_dagger_line_without_its_forward_line(self, digits):
        with working_digits(16):
            frame = FrameTriad.from_unitary(su2.from_generator(oracles.unit_vector((1, -2, 2)), mpf("0.9")))
            dagger = Pulse(frame, oracles.unit_vector((1, 2, 3)), Fraction(-1, 6), Role.CORRECTION_DAGGER, "pi3")
            (q,) = parse(serialize(PulseSequence(X_PI, (dagger,)))).pulses
            forward = Pulse(q.frame, q.axis_in_frame, -q.alpha_pi, Role.CORRECTION, "pi3")
        with working_digits(digits):
            for kind, make in sorted(_MODEL_KINDS.items()):
                model, scale = make(mpf("-0.013")), mpf("0.7")
                assert model.realize(q, scale) == su2.dagger(model.realize(forward, scale)), kind
            assert q.daggered() is not forward and q.daggered().daggered() is q


def _bits(u) -> list:
    return [c._mpf_ for c in u]


class TestPerfectChannel:
    @pytest.mark.parametrize("digits", [16, 60])
    @pytest.mark.parametrize("kind", sorted(_MODEL_KINDS))
    def test_realize_keeps_every_perfect_pulse_ideal(self, kind, digits):
        with working_digits(digits):
            model, scale = _MODEL_KINDS[kind](mpf("0.1")), mpf("0.7")
            for daggers_first in (False, True):
                seq = pi3_correct(pi5_sequence(parse_target("z-pi")), Y)
                perfect = [p for p in seq.pulses if p.channel == "perfect"]
                assert {p.role.is_dagger for p in perfect} == {False, True}
                for p in sorted(perfect, key=lambda p: p.role.is_dagger != daggers_first):
                    assert _bits(model.realize(p, scale)) == _bits(p.ideal_unitary()), p


def _axis_entry_outcomes(axis, frame_scale) -> dict:
    """Entry point -> the sequence or unitary it makes of ``axis``, or None
    when it refuses the axis.  The pulse line and the Pulse sit in a frame of
    three lab axes scaled by ``frame_scale``."""
    text = " ".join(format_scalar(c) for c in axis)
    f = format_scalar(frame_scale)
    frame = FrameTriad((frame_scale, 0, 0), (0, frame_scale, 0), (0, 0, frame_scale))
    entries = {
        "target line": lambda: parse(f"target {text} 1/2\npulse 1 0 0 1/2 target target\n"),
        "pulse line": lambda: parse(
            f"target 1 0 0 1/2\npulse {text} 1/6 correction pi3 frame {f} 0 0 0 {f} 0 0 0 {f}\n"
        ),
        "Pulse": lambda: PulseSequence(X_PI, (Pulse(frame, axis, Fraction(1, 6), Role.CORRECTION, "pi3"),)),
        "target_pulse": lambda: naive(target_pulse(axis, Fraction(1, 2))),
        "pi3_correct": lambda: pi3_correct(naive(X_PI), axis),
        "from_generator": lambda: su2.from_generator(axis, mpf("0.3")),
    }
    out = {}
    for name, make in entries.items():
        try:
            out[name] = make()
        except su2.InvalidAxisError:
            out[name] = None
        except DslError as exc:
            assert "axis norm" in str(exc)
            out[name] = None
    return out


def _assert_evaluates(made) -> None:
    for seq in made.values():
        if isinstance(seq, PulseSequence):
            seq.ideal_unitary()
            for kind, make in sorted(_MODEL_KINDS.items()):
                assert evaluate(seq, make(mpf("0.01")), mpf("0.5")) != su2.identity(), kind


class TestAxisAcceptance:
    @pytest.mark.parametrize(
        "axis, accepted",
        [
            ((1 + mpf("1e-12"), 0, 0), True),
            ((0, 0, 1 - mpf("9e-10")), True),
            ((1, 1, 0), False),
            ((1 + mpf("2e-9"), 0, 0), False),
            ((0, 1 - mpf("2e-9"), 0), False),
        ],
    )
    def test_every_entry_point_checks_an_axis_to_the_geometry_tolerance(self, axis, accepted):
        with working_digits(60):
            made = _axis_entry_outcomes(tuple(mpf(c) for c in axis), mpf(1))
            assert [name for name, m in made.items() if (m is not None) != accepted] == []
            _assert_evaluates(made)

    @settings(max_examples=40, deadline=None)
    @given(
        direction=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: sum(c * c for c in v) > 0.01),
        d=st.floats(-2e-9, 2e-9),
        f=st.floats(-3e-10, 3e-10),
        digits=st.sampled_from([16, 60]),
    )
    def test_entry_points_accept_or_refuse_an_axis_together(self, direction, d, f, digits):
        with working_digits(digits):
            axis = tuple(c * (1 + mpf(d)) for c in oracles.unit_vector(direction))
            made = _axis_entry_outcomes(axis, 1 + mpf(f))
            assert len({m is None for m in made.values()}) == 1, made
            _assert_evaluates(made)

    def test_a_file_read_at_a_higher_precision_stores_the_numbers_its_lines_spell(self):
        # b2's phase axes, written at 16 digits, are off unit by more than
        # 10**(3 - 60); read at 60 digits, each pulse keeps them as written.
        with working_digits(16):
            text = serialize(b2(X_PI))
        lines = [line.split() for line in text.splitlines() if line.startswith("pulse ")]
        with working_digits(60):
            pulses = parse(text).pulses
            assert len(pulses) == len(lines) == 4
            for p, toks in zip(pulses, lines):
                assert [c._mpf_ for c in p.axis_in_frame] == [mpf(t)._mpf_ for t in toks[1:4]]

    def test_a_pulse_keeps_axis_numbers_made_at_another_precision(self):
        with working_digits(60):
            axis = oracles.unit_vector((1, 2, 3))
        with working_digits(16):
            p = Pulse(FrameTriad.identity(), axis, Fraction(1, 6), Role.CORRECTION, "pi3")
        assert [c._mpf_ for c in p.axis_in_frame] == [c._mpf_ for c in axis]

    def test_lab_axis_is_the_derived_axis_of_a_tilted_frame(self):
        # A unit axis in a frame within the geometry tolerance of
        # orthonormal: its lab image is off unit by more than a stored axis
        # may be, and the derived axis is what the pulse rotates about.
        c = "0.57735026918962576450914878050195745564760175127"
        big, small = "1.00000000033", "0.00000000049"
        frame = " ".join([big, small, small, small, big, small, small, small, big])
        with working_digits(30):
            (p,) = parse(f"target 1 0 0 1/2\npulse {c} {c} {c} 1/6 correction pi3 frame {frame}\n").pulses
            assert p.lab_axis() == p.derived().axis


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


def _pulses_identical(p, q):
    return (
        p.alpha_pi == q.alpha_pi
        and p.role == q.role
        and p.channel == q.channel
        and p.axis_in_frame == q.axis_in_frame
        and p.frame == q.frame
    )


class TestDsl:
    @pytest.mark.parametrize("name", ["naive", "pi3:Y", "b4", "pi3Y∘b2sym", "pi5"])
    def test_serialize_parse_round_trip_bit_exact(self, name):
        seq = build_builtin(name)
        back = parse(serialize(seq))
        assert back.target.alpha_pi == seq.target.alpha_pi
        assert back.target.axis_in_frame == seq.target.axis_in_frame
        assert len(back.pulses) == len(seq.pulses)
        assert all(_pulses_identical(p, q) for p, q in zip(seq.pulses, back.pulses))

    def test_round_trip_evaluation_bit_exact(self):
        seq = build_builtin("pi3Y∘b4sym")
        back = parse(serialize(seq))
        model = LinearOverRotation(1)
        assert evaluate(seq, model, mpf("0.01")) == evaluate(back, model, mpf("0.01"))

    def test_round_trip_at_extended_precision(self):
        with working_digits(60):
            seq = build_builtin("pi3:Z", target_pulse(oracles.unit_vector((2, 1, 2)), Fraction(1, 3)))
            back = parse(serialize(seq))
            assert all(_pulses_identical(p, q) for p, q in zip(seq.pulses, back.pulses))

    @pytest.mark.parametrize("name", ["pi3Y∘b4sym", "concat:XZ", "pi5"])
    def test_round_trip_keeps_name_target_and_pulses(self, name):
        seq = build_builtin(name)
        back = parse(serialize(seq))
        assert back.name == seq.name != ""
        assert back.target == seq.target
        assert back.pulses == seq.pulses

    @given(st.text().filter(lambda name: "\n" not in name and name == name.strip()))
    def test_every_name_serialize_accepts_reads_back(self, name):
        assert parse(serialize(replace(build_builtin("naive"), name=name))).name == name

    @pytest.mark.parametrize("name", ["a\nb", "  spaced  ", "trailing\n", "\ttab", "cr\r"])
    def test_a_name_that_would_not_read_back_is_refused(self, name):
        with pytest.raises(SequenceError, match="does not round-trip"):
            serialize(replace(build_builtin("naive"), name=name))

    def test_name_is_read_only_from_the_header(self):
        text = "# sequence: first\ntarget 1 0 0 1/2\n# sequence: second\n"
        assert parse(text).name == "first"
        assert parse("target 1 0 0 1/2\n# sequence: late\n").name == ""

    def test_frame_target_reads_back_as_a_reference_to_the_parsed_target(self):
        seq = build_builtin("concat:XYZ", parse_target("y-3pi/4"))
        text = serialize(seq)
        back = parse(text)
        assert back.pulses == seq.pulses
        referring = [p for p in back.pulses if isinstance(p.frame, FrameOf)]
        assert len(referring) == text.count(" frame target\n") > 0
        assert all(p.frame.pulse is back.target for p in referring)
        assert all(p.frame is FrameTriad.identity() for p in back.pulses if not isinstance(p.frame, FrameOf))
        assert serialize(back) == text

    def test_a_reference_to_another_pulse_is_written_as_its_nine_numbers(self):
        other = parse_target("z-pi/2")
        p = Pulse(FrameOf(other), Y, Fraction(1, 6), Role.CORRECTION, "pi3")
        for digits in (16, 60):
            with working_digits(digits):
                text = serialize(PulseSequence(X_PI, (p,)))
                assert "frame target" not in text
                (q,) = parse(text).pulses
                assert q.frame == other.conjugation_frame()
                assert q.derived().axis == p.derived().axis

    def test_identical_pulse_lines_load_as_one_pulse(self):
        text = serialize(build_builtin("concat:XZXYXY", parse_target("y-pi/2")))
        pulse_lines = [line for line in text.splitlines() if line.startswith("pulse")]
        seq = parse(text)
        assert len(seq.pulses) == len(pulse_lines) == 2185
        assert len({id(p) for p in seq.pulses}) == len(set(pulse_lines)) == 14

    def test_spacing_and_trailing_comments_do_not_split_a_shared_pulse(self):
        text = (
            "target 1 0 0 1/2\n"
            "pulse 1 0 0 1/2 target target\n"
            "pulse  1 0  0 1/2 target\ttarget   # again\n"
            "pulse 1 0 0 1/2 target target#again\n"
        )
        a, b, c = parse(text).pulses
        assert a is b is c

    def test_pulse_lines_of_equal_value_load_as_one_pulse(self):
        a, b = parse("target 1 0 0 1/2\npulse 0 1 0 1/6 correction pi3\npulse 0.0 1.0 0 1/6 correction pi3\n").pulses
        assert a is b

    def test_a_dagger_line_spelled_otherwise_is_linked_to_its_forward_line(self):
        text = (
            "target 1 0 0 1/2\n"
            "pulse 0 1 0 1/6 correction pi3 frame 1 0 0 0 -1 0 0 0 -1\n"
            "pulse 0 1 0 -1/6 correction_dagger pi3 frame 1.0 0 0 0 -1.0 0 0 0 -1\n"
        )
        forward, dagger = parse(text).pulses
        assert forward.daggered() is dagger and dagger.daggered() is forward

    def test_repeated_bad_line_fails_at_its_first_occurrence(self):
        bad = "pulse 1 0 0 1/2 target radio\n"
        with pytest.raises(DslError) as err:
            parse("target 1 0 0 1/2\npulse 1 0 0 1/2 target target\n" + bad + bad)
        assert (err.value.line, err.value.column) == (3, 24)

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
            ("target 1 0 0 1/2\npulse 0 0 0 1/2 target target\n", 2, 7),  # zero axis: its first number
            ("target 1 0 0 1/2\npulse 1 0 0 1/2 target radio\n", 2, 24),  # unknown channel
        ],
    )
    def test_errors_carry_line_and_column(self, text, line, col):
        with pytest.raises(DslError) as err:
            parse(text)
        assert err.value.line == line
        assert err.value.column == col

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("target 1 0 0 1/2\npulse 1 0 0 " + "1" * 4401 + "/2 target target\n", 2, 13),
            ("target 1 0 0 " + "1" * 4401 + "/2\n", 1, 14),
        ],
        ids=["pulse", "target"],
    )
    def test_overlong_rational_angle_reports_its_position(self, text, line, col):
        with pytest.raises(DslError, match="too long") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, col)

    _T = "target 1 0 0 1/2\n"
    _PI3 = _T + "pulse 0 1 0 1/6 correction pi3 "
    _P = "pulse 1 0 0 1/2 target target\n"
    _TYPO = "pulse 1 0 0 1/2 targe target\n"

    @pytest.mark.parametrize(
        "text,line,col,message",
        [
            (_T + "pulse 1 0 x 1/2 target target", 2, 11, "bad number 'x'"),
            (_T + "pulse 1 0 inf 1/2 target target", 2, 11, "non-finite number 'inf'"),
            ("target 1 0 nan 1/2", 1, 12, "non-finite number 'nan'"),
            (_T + "pulse 1 0 0 1/0 target target", 2, 13, "zero denominator"),
            (_T + _T, 2, 1, "duplicate target line"),
            (_PI3 + "frames 1 0 0 0 1 0 0 0 1", 2, 32, "expected 'frame', got 'frames'"),
            (_PI3 + "frame 1 0 0 0 1 0 0 1 0", 2, 32, "not orthonormal"),
            (_PI3 + "frame 1 0 0 0 1 0 0 0 -1", 2, 32, "not right-handed"),
            (_PI3 + "frame 1 0 0 0 1 0 0 0 q", 2, 54, "bad number 'q'"),
            (_PI3 + "frame", 2, 32, "'frame' needs 'target' or 9 numbers"),
            (_PI3 + "frame targets", 2, 32, "'frame' needs 'target' or 9 numbers"),
            (_PI3 + "frame 1 0 0 0 1 0 0 0", 2, 32, "'frame' needs 'target' or 9 numbers"),
            (_PI3 + "frame target 1", 2, 45, "unexpected '1' after 'frame target'"),
            (_PI3 + "frame target target", 2, 45, "unexpected 'target' after 'frame target'"),
            ("target 1 1 0 1/2", 1, 1, "deviates from 1 beyond tolerance"),
            (_T + "pulse 3/5 4/5 0 1/6 correction pi3", 2, 7, "bad number '3/5'"),
            (_T + "pulse 1_0 0 0 1/2 target target", 2, 7, "bad number '1_0'"),
            (_T + "pulse 1 0 1/0 1/2 target target", 2, 11, "bad number '1/0'"),
            (_T + "pulse 1 0 0x0 1/2 target target", 2, 11, "bad number '0x0'"),
            ("target \u0661 0 0 1/2", 1, 8, "bad number '\u0661'"),
            (_T + "pulse 1 0 0 \u0661/\u0662 target target", 2, 13, "bad rational angle"),
            # lines end at line feeds only, and one leading byte-order mark is dropped
            ("target 1 0 0 1/2  # note\u2028see below\n" + _P + _TYPO, 3, 17, "unknown role 'targe'"),
            (_T + "pulse 1 0 0 1/2 target target  # note\fsee below\n" + _TYPO, 3, 17, "unknown role 'targe'"),
            ("\ufeff" + _T + _P + _TYPO, 3, 17, "unknown role 'targe'"),
            ((_T + _P + _TYPO).replace("\n", "\r\n"), 3, 17, "unknown role 'targe'"),
        ],
    )
    def test_each_error_path_reports_its_position_and_reason(self, text, line, col, message):
        with pytest.raises(DslError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, col)
        assert message in str(err.value)

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
                    g = su2.from_generator(oracles.unit_vector(gvec), mpf(gspec[3]))
                    frame = FrameTriad.from_unitary(g)
            pulses.append(Pulse(frame, oracles.unit_vector(axis), alpha_pi, role, channel))
        seq = PulseSequence(X_PI, tuple(pulses))
        back = parse(serialize(seq))
        assert all(_pulses_identical(p, q) for p, q in zip(seq.pulses, back.pulses))


# ---------------------------------------------------------------------------
# The file flow: build at 16 digits, write, read and evaluate at 60


# Depth-6 chains, one level deeper than the digest matrix: (spec, target,
# bytes of the text written at 16 digits, its SHA-256, SHA-256 of the repr
# of its 60-digit evaluation under linear over-rotation).  A change that
# alters these bits on purpose updates the hashes and says so.  The
# evaluation hashes are those of the 60-digit builds, since the conjugated
# pulses are written "frame target", not as 16-digit numbers.
DEEP_TEXTS = [
    (
        "concat:XZYYXZ", "x-pi", 98365,
        "fe7990feaba6deab310c3a55960f2d54864cdd154c12fc6bcfa65b83de79b567",
        "6ce7be71d08c7a34a9b440c2479fbf71179093a94890686fd2ac979a693001b8",
    ),
    (
        "concat:XZXYXY", "y-pi/2", 98365,
        "137344ae2397220be7cd4513db69e572eaa087b9c54f525e5ec69454579bc347",
        "180ce60c5a670878f013b6e3beab625806483b9ce3c11c51201f334efada2bc5",
    ),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _deep_text(spec="concat:XZYYXZ", target="x-pi") -> str:
    with working_digits(16):
        return serialize(build_builtin(spec, parse_target(target)))


class TestFileFlow:
    @pytest.mark.parametrize("spec,target,size,text_hash,result_hash", DEEP_TEXTS, ids=["x-pi", "y-pi/2"])
    def test_deep_text_and_its_evaluation_keep_their_pinned_bits(
        self, spec, target, size, text_hash, result_hash
    ):
        text = _deep_text(spec, target)
        assert (len(text.encode("utf-8")), _sha256(text)) == (size, text_hash)
        with working_digits(60):
            model = parse_model("model=linear eps=0.05")
            result = evaluate(parse(text), model, mpf(1))
            assert _sha256(repr(result)) == result_hash
            # the 16-digit text holds no frame numbers: it evaluates like a 60-digit build
            assert result == evaluate(build_builtin(spec, parse_target(target)), model, mpf(1))

    def test_evaluation_derives_the_conjugation_frame_once_per_precision(self, monkeypatch):
        frames = _count_calls(monkeypatch, FrameTriad, "from_unitary")
        t = parse_target("x-pi")
        model = parse_model("model=vector dx=0.01;dy=0.02")
        with working_digits(16):
            seq = build_builtin("concat:XZYYXZ", t)
            # a build derives no frame: every level's conjugated pulses refer to t
            assert frames == []
            assert all(p.frame.pulse is t for p in seq.pulses if isinstance(p.frame, FrameOf))
            evaluate(seq, model)
            evaluate(build_builtin("concat:XZYYXZ", t), model)
            assert len(frames) == 1
        with working_digits(60):
            evaluate(seq, model)
            assert len(frames) == 2
            fresh = FrameTriad.from_unitary(t.ideal_unitary())
            kept = t.conjugation_frame()
            bits = [[c._mpf_ for c in f.ex + f.ey + f.ez] for f in (kept, fresh)]
            assert bits[0] == bits[1]

    def test_pi5_refers_to_its_target(self, monkeypatch):
        t = parse_target("z-pi/2")
        frames = _count_calls(monkeypatch, FrameTriad, "from_unitary")
        seq = pi5_sequence(t)
        assert frames == []
        conjugated = [p for p in seq.pulses if isinstance(p.frame, FrameOf)]
        assert len(conjugated) == 2 and all(p.frame.pulse is t for p in conjugated)

    def test_serialize_formats_each_pulse_once(self, monkeypatch):
        with working_digits(16):
            seq = build_builtin("concat:XZYYXZ")
            scalars = _count_calls(monkeypatch, sequences, "format_scalar")
            serialize(seq)
        # three per distinct pulse object (26) and three for the target; a
        # frame is "frame target", with no numbers
        assert len({id(p) for p in seq.pulses}) == 26
        assert len(scalars) == 3 * 26 + 3 == 81

    def test_parse_constructs_one_pulse_per_distinct_line(self, monkeypatch):
        text = _deep_text()
        constructed = _count_calls(monkeypatch, Pulse, "__post_init__")
        with working_digits(60):
            parse(text)
        assert len(constructed) == 15
