import random
import time
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import fabs, mp, mpf, sqrt

from compulse import analysis, su2
from compulse.analysis import (
    DEFAULT_GRID,
    FAMILIES,
    MAX_SCALES,
    TABLE_EPS,
    TABLE_SEQUENCES,
    FitError,
    component_scan,
    covariant_family,
    default_scales,
    fit_order,
    fit_points,
    format_sci,
    infidelity_table,
    parse_grid,
    series_coefficient,
    target_vector_family,
    to_csv,
    _sci_bounded,
    _sci_exact,
    _stencil_weights,
)
from compulse.error_models import CovariantVector, LinearOverRotation, ModelConfigError, PerChannel
from compulse.precision import PrecisionError, unit_tolerance, working_digits
from compulse.sequences import (
    build_builtin,
    evaluate,
    format_scalar,
    naive,
    parse,
    parse_target,
    pi3_correct,
    serialize,
    target_pulse,
)

from oracles import (
    STENCIL_OFFSETS,
    DegenerateDirectionError,
    format_sci_decimal,
    stencil_coefficient,
    xy_error_axis,
)

X = (1, 0, 0)
Z_PI = target_pulse((0, 0, 1), Fraction(1, 2))


class TestDefaultScales:
    def test_covers_three_decades(self):
        scales = parse_grid(DEFAULT_GRID)
        assert len(scales) == 28
        assert fabs(scales[0] - mpf("0.1")) < mpf("1e-12")
        assert fabs(scales[-1] - mpf("1e-4")) < mpf("1e-16")

    def test_strictly_decreasing(self):
        scales = default_scales("1e-3", "1e-1", 5)
        assert all(a > b for a, b in zip(scales, scales[1:]))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            default_scales("1e-1", "1e-4", 9)

    @pytest.mark.parametrize("lo,hi", [("1e-3", "inf"), ("nan", "1e-1"), ("1e-3", "nan"), ("inf", "inf")])
    def test_rejects_non_finite_bounds_by_name(self, lo, hi):
        with pytest.raises(ValueError, match="finite bounds"):
            default_scales(lo, hi, 3)

    def test_point_limit(self):
        assert len(default_scales("1e-4", "1e-1", 3333)) == MAX_SCALES
        with pytest.raises(ValueError, match="limit"):
            default_scales("1e-4", "1e-1", 3334)


class TestComponentScan:
    def test_zero_model_gives_zero_rows(self):
        scan = component_scan(build_builtin("naive"), LinearOverRotation(0), default_scales("1e-2", "1e-1", 4))
        for row in scan.rows:
            assert row.cx == 0 and row.cy == 0 and row.cz == 0 and row.infidelity == 0

    def test_rows_sorted_descending(self):
        scan = component_scan(build_builtin("naive"), LinearOverRotation(1), [mpf("1e-3"), mpf("1e-1"), mpf("1e-2")])
        eps = [r.eps for r in scan.rows]
        assert eps == sorted(eps, reverse=True)

    def test_duplicate_scales_rejected(self):
        with pytest.raises(ValueError):
            component_scan(build_builtin("naive"), LinearOverRotation(1), [mpf("0.1"), mpf("0.1")])

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="scan scales must be positive"):
            component_scan(build_builtin("naive"), LinearOverRotation(1), [mpf("0.1"), 0])

    def test_unknown_column_rejected(self):
        scan = component_scan(build_builtin("naive"), LinearOverRotation(1), [mpf("0.1")])
        with pytest.raises(ValueError, match="unknown column 'bogus'"):
            scan.column("bogus")

    def test_branch_overflow_rows_flagged_not_dropped(self):
        model = CovariantVector.constant((mpf("0.9"), 0, 0))
        scan = component_scan(build_builtin("naive"), model, [mpf("0.5"), mpf("2")])
        assert len(scan.rows) == 2
        assert not scan.rows[0].ok and scan.rows[0].infidelity is None
        assert scan.rows[1].ok

    def test_deterministic_csv(self):
        with working_digits(30):
            a = to_csv(component_scan(build_builtin("b2"), LinearOverRotation(1), default_scales("1e-2", "1e-1", 4)))
            b = to_csv(component_scan(build_builtin("b2"), LinearOverRotation(1), default_scales("1e-2", "1e-1", 4)))
        assert a == b
        assert a.splitlines()[0] == "epsilon,cx,cy,cz,infidelity"

    def test_csv_does_not_depend_on_the_ambient_precision(self):
        with working_digits(60):
            scan = component_scan(build_builtin("b2"), LinearOverRotation(1), default_scales("1e-3", "1e-1", 3))
            at_60 = to_csv(scan)
        with working_digits(16):
            assert to_csv(scan) == at_60

    def test_csv_flags_appear_as_nan(self):
        model = CovariantVector.constant((mpf("0.9"), 0, 0))
        scan = component_scan(build_builtin("naive"), model, [mpf("2")])
        body = to_csv(scan).splitlines()[1]
        assert body.endswith(",nan,nan,nan,nan")


class TestFormatSci:
    def test_basic(self):
        assert format_sci(mpf("0.0123"), 2) == "1.2e-02"
        assert format_sci(mpf("4.6e-6"), 2) == "4.6e-06"
        assert format_sci(0, 3) == "0e+00"
        assert format_sci(mpf("-3.21e5"), 3) == "-3.21e+05"

    def test_rounding_carry(self):
        assert format_sci(mpf("9.97e-3"), 2) == "1.0e-02"

    def test_ties_round_away_from_zero(self):
        assert format_sci(mpf("0.125"), 2) == "1.3e-01"
        assert format_sci(mpf("-0.375"), 2) == "-3.8e-01"

    def test_one_digit_prints_no_point(self):
        assert format_sci(mpf(5), 1) == "5e+00"
        assert format_sci(mpf("-0.96"), 1) == "-1e+00"

    @pytest.mark.parametrize(
        "x, sig, problem",
        [
            (mpf(1), 0, "significant digit"),
            (mpf("inf"), 3, "not a finite"),
            (mpf("-inf"), 3, "not a finite"),
            (mpf("nan"), 3, "not a finite"),
        ],
        ids=["sig-0", "inf", "-inf", "nan"],
    )
    def test_rejects_no_digits_and_non_finite_values(self, x, sig, problem):
        with pytest.raises(ValueError, match=problem):
            format_sci(x, sig)

    @pytest.mark.parametrize("digits", [16, 60])
    def test_mantissa_starts_with_a_nonzero_digit_next_to_powers_of_ten(self, digits):
        # a value a few ulps from 10**k sits on the edge of two decimal exponents
        with working_digits(digits):
            ulp = mpf(2) ** -mp.prec
            for k in range(-80, 41):
                for j in (-3, -2, -1, 1, 2, 3):
                    x = mpf(10) ** k * (1 + j * ulp)
                    text = format_sci(x, digits)
                    assert text[0] in "123456789" and text[1] == ".", text
                    mantissa, _, exponent = text.partition("e")
                    assert 1 <= Fraction(mantissa) < 10, text
                    back = mpf(mantissa) * mpf(10) ** int(exponent)
                    assert fabs(back - x) <= fabs(x) * mpf(10) ** (1 - digits), text


class TestFormatSciAtLargeExponents:
    """Beyond a few thousand binary places format_sci bounds the scaled value
    by intervals; it gives the exact path's digits at a cost that does not
    grow with the exponent."""

    @pytest.mark.parametrize(
        "text, want",
        [
            ("1e3000000", "1.000000000000000e+3000000"),
            ("-1e-3000000", "-1.000000000000000e-3000000"),
            ("1e-100000000", "1.000000000000000e-100000000"),
            ("3.7e100000000", "3.700000000000000e+100000000"),
        ],
    )
    def test_huge_exponents_take_no_time(self, text, want):
        with working_digits(16):
            x = mpf(text)
        start = time.perf_counter()
        assert format_sci(x, 16) == want
        assert time.perf_counter() - start < 0.5

    @settings(max_examples=300)
    @given(st.integers(1, 70), st.integers(0, 1 << 700), st.integers(-33300, 33300))
    def test_bounded_path_is_the_exact_path(self, sig, half, exp):
        # decimal exponents up to about 10**4 either way; mpmath mantissas are odd
        man = 2 * half + 1
        assert _sci_bounded(man, exp, sig) == _sci_exact(man, exp, sig)

    @pytest.mark.parametrize("k", [40, 5000, 20000])
    @pytest.mark.parametrize("q", [12344, 99999])
    def test_ties_and_neighbours_far_above_one(self, k, q):
        # (q + 1/2) * 10**k is an exact binary tie; 2 units of its odd mantissa
        # either side round to q and q + 1
        man, exp = (2 * q + 1) * 5**k, k - 1
        for delta in (-2, 0, 2):
            assert _sci_bounded(man + delta, exp, 5) == _sci_exact(man + delta, exp, 5)
        assert _sci_bounded(man, exp, 5) == ((q + 1, k + 4) if q < 99999 else (10000, k + 5))
        assert _sci_bounded(man - 2, exp, 5) == (q, k + 4)

    @pytest.mark.parametrize("k", [-20000, -5000, 5000, 20000])
    @pytest.mark.parametrize("digits", [16, 60, 200])
    def test_values_next_to_powers_of_ten_and_to_ties(self, k, digits):
        with working_digits(digits):
            ulp = mpf(2) ** -mp.prec
            for base in (mpf(10) ** k, mpf("1.5") * mpf(10) ** k, mpf("9.5") * mpf(10) ** k):
                for j in (-2, -1, 0, 1, 2):
                    _, man, exp, _ = (base * (1 + j * ulp))._mpf_
                    for sig in (1, 2, digits):
                        assert _sci_bounded(man, exp, sig) == _sci_exact(man, exp, sig)

    @pytest.mark.parametrize("bits", [analysis._EXACT_BITS, analysis._EXACT_BITS + 1])
    def test_both_sides_of_the_switch_match_the_decimal_oracle(self, bits):
        with working_digits(60):
            for t in (bits, -bits):
                for man in (1, 3, 2**200 - 1):
                    x = mp.make_mpf((0, man, t - man.bit_length(), man.bit_length()))
                    for sig in (1, 17, 64):
                        assert format_sci(x, sig) == format_sci_decimal(x, sig)


@st.composite
def _digits_and_sig(draw):
    digits = draw(st.sampled_from((16, 60, 200)))
    return digits, draw(st.integers(1, digits + 4))


class TestFormatSciOracle:
    """format_sci equals the decimal oracle at 16, 60 and 200 digits, for
    every sig from 1 to digits + 4."""

    @settings(max_examples=200)
    @given(_digits_and_sig(), st.integers(-(1 << 700), 1 << 700), st.integers(-1500, 1000))
    def test_random_values(self, digits_sig, man, exp):
        digits, sig = digits_sig
        with working_digits(digits):
            x = mpf((man, exp))
            assert format_sci(x, sig) == format_sci_decimal(x, sig)

    @settings(max_examples=200)
    @given(_digits_and_sig(), st.integers(-300, 300), st.integers(-4, 4), st.booleans())
    def test_values_within_four_ulps_of_a_power_of_ten(self, digits_sig, k, ulps, negative):
        digits, sig = digits_sig
        with working_digits(digits):
            _, man, exp, bc = (mpf(10) ** k)._mpf_
            man, exp = (man << (mp.prec - bc)) + ulps, exp - (mp.prec - bc)
            x = mpf((-man if negative else man, exp))
            assert format_sci(x, sig) == format_sci_decimal(x, sig)

    @given(st.sampled_from((16, 60, 200)), st.integers(0, (1 << 29) - 1), st.integers(2, 60), st.booleans())
    def test_exact_ties(self, digits, half, shift, negative):
        # m / 2**shift for odd m has len(str(m * 5**shift)) significant digits,
        # the last a 5, so one digit fewer is an exact tie
        m = 2 * half + 1
        sig = len(str(m * 5**shift)) - 1
        with working_digits(digits):
            x = mpf((-m if negative else m, -shift))
            text = format_sci(x, sig)
            assert text == format_sci_decimal(x, sig)
        assert int(text.partition("e")[0].replace(".", "").lstrip("-")) == (m * 5**shift + 5) // 10


class TestFitOrder:
    def test_recovers_exact_power_law(self):
        scales = default_scales("1e-4", "1e-1", 9)
        values = [mpf("3.7") * s**5 for s in scales]
        fit = fit_points(scales, values)
        assert abs(fit.slope - 5) < 1e-6
        assert fit.max_residual < 1e-9

    def test_floor_points_excluded(self):
        with working_digits(16):
            scales = default_scales("1e-4", "1e-1", 4)
            floor = mpf(10) ** (2 - mp.dps)
            values = [mpf("1e-3") if s > mpf("5e-3") else floor / 10 for s in scales]
            fit = fit_points(scales, values)
            assert all(e > mpf("5e-3") for e in fit.eps_used)

    def test_too_few_points_raises(self):
        with pytest.raises(FitError):
            fit_points([mpf("0.1"), mpf("0.01")], [mpf("1e-3"), mpf("1e-5")])

    def test_points_at_one_eps_raise(self):
        with pytest.raises(FitError, match="share one eps"):
            fit_points([mpf(1)] * 4, [mpf(2)] * 4)

    def test_naive_infidelity_slope_two(self):
        scan = component_scan(build_builtin("naive"), LinearOverRotation(1), parse_grid(DEFAULT_GRID))
        fit = fit_order(scan)
        assert abs(fit.slope - 2) < 0.05


def _nine_number_frame_file() -> str:
    """pi3:X around y-3pi/4 as text written at 16 digits, with the frame of
    its conjugated pulses written as nine numbers instead of ``frame target``."""
    with working_digits(16):
        seq = build_builtin("pi3:X", parse_target("y-3pi/4"))
        f = seq.target.conjugation_frame()
        nine = " ".join(map(format_scalar, f.ex + f.ey + f.ez))
        return serialize(seq).replace("frame target", "frame " + nine)


# name -> how to make the sequence, at the working precision
SERIES_SEQUENCES = {
    "pi3:X on z-pi": lambda: build_builtin("pi3:X", parse_target("z-pi")),
    "concat:XY": lambda: build_builtin("concat:XY"),
    "concat:Y:b2sym": lambda: build_builtin("concat:Y:b2sym"),
    "16-digit file, nine-number frame": lambda: parse(_nine_number_frame_file()),
}


class TestSeriesCoefficient:
    @given(
        name=st.sampled_from(sorted(SERIES_SEQUENCES)),
        family=st.sampled_from(sorted(FAMILIES)),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=3),
        component=st.sampled_from(["x", "y", "z"]),
    )
    def test_matches_finite_differences_at_twice_the_digits(self, name, family, picks, component):
        fam = FAMILIES[family]()
        orders = dict(Counter(fam.names[i % len(fam.names)] for i in picks))
        with working_digits(60):
            seq = SERIES_SEQUENCES[name]()
            got = series_coefficient(seq, fam, orders, component)
        with working_digits(120):
            want = stencil_coefficient(seq, fam, orders, component)
            assert fabs(got - want) <= mpf("1e-25") * max(1, fabs(want))

    @pytest.mark.parametrize("digits", [16, 60])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_of_naive_under_a_z_error(self, digits, n):
        # cz = 2*sin(ez): the ez**n coefficient is 2*(-1)**((n - 1)/2)/n!
        # for odd n and 0 for even n
        with working_digits(digits):
            got = series_coefficient(build_builtin("naive"), target_vector_family(), {"ez": n}, "z")
            if n % 2 == 0:
                assert got == 0
            else:
                want = mpf(2 * (-1) ** ((n - 1) // 2)) / factorial(n)
                ulp = mpf(2) ** (mp.mag(want) - mp.prec)
                assert fabs(got - want) <= 4 * ulp

    @pytest.mark.parametrize("digits", [16, 60])
    def test_mixed_derivative_of_known_product(self, digits):
        # the corrected sequence's y component carries 2*sqrt(3)*dy*ex
        with working_digits(digits):
            seq = pi3_correct(naive(Z_PI), X)
            got = series_coefficient(seq, covariant_family(), {"dy": 1, "ex": 1}, "y")
            assert fabs(got - 2 * sqrt(mpf(3))) <= unit_tolerance()

    @pytest.mark.parametrize(
        "orders, name",
        [
            ({"ez": 1.5}, "ez"),
            ({"ez": 1, "ex": 0.4}, "ex"),
            ({"ez": "1"}, "ez"),
            ({"ez": True}, "ez"),
            ({"ez": 1, "ey": False}, "ey"),
            ({"ez": mpf(1)}, "ez"),
            ({"ez": Fraction(1)}, "ez"),
        ],
    )
    def test_a_power_that_is_not_an_int_is_refused_by_name(self, orders, name):
        with pytest.raises(ModelConfigError, match=f"^power of {name} must be a non-negative integer, got "):
            series_coefficient(build_builtin("naive"), target_vector_family(), orders, "z")

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            series_coefficient(build_builtin("naive"), target_vector_family(), {"qq": 1}, "z")

    def test_rejects_empty_orders(self):
        with pytest.raises(ValueError):
            series_coefficient(build_builtin("naive"), target_vector_family(), {}, "z")

    @pytest.mark.parametrize("orders", [{"ex": 3, "ey": 2}, {"ex": 1, "ey": 4}, {"ey": 2, "ez": 2}, {"ex": 4}])
    def test_rejects_a_total_order_above_three_before_any_work(self, monkeypatch, orders):
        # finite differences check the series up to total order 3 only
        monkeypatch.setattr(su2, "series_product", None)
        with pytest.raises(ModelConfigError, match="above the limit 3"):
            series_coefficient(build_builtin("naive"), target_vector_family(), orders, "x")

    def test_rejects_unknown_component(self):
        with pytest.raises(ValueError, match="component must be x, y or z, got 'w'"):
            series_coefficient(build_builtin("naive"), target_vector_family(), {"ez": 1}, "w")


class TestModelFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_build_is_linear_in_its_values(self, family):
        # each pulse's generator under build(values) is the sum of values[j]
        # times its generator under build of the j-th unit vector
        fam = FAMILIES[family]()
        rng = random.Random(5)
        n = len(fam.names)
        with working_digits(60):
            values = [mpf(rng.uniform(-1, 1)) for _ in range(n)]
            model = fam.build(values)
            units = [fam.build([int(i == j) for i in range(n)]) for j in range(n)]
            nonzero = 0
            for make in SERIES_SEQUENCES.values():
                for p in {id(p): p.forward() for p in make().pulses}.values():
                    got = model.generator(p)
                    want = [sum(v * u.generator(p)[c] for v, u in zip(values, units)) for c in range(3)]
                    assert all(fabs(a - b) <= unit_tolerance() for a, b in zip(got, want))
                    nonzero += any(got)
            assert nonzero


class TestXyErrorAxis:
    def test_pure_z_error_returns_x_by_convention(self):
        model = PerChannel({"target": CovariantVector.constant((0, 0, 1))})
        axis = xy_error_axis(build_builtin("naive", Z_PI), model, mpf("1e-3"))
        assert axis == (1, 0, 0)

    def test_tiny_noisy_projection_raises(self):
        with working_digits(16):
            model = PerChannel(
                {"target": CovariantVector.constant((mpf("1e-14"), 0, 1))}
            )
            with pytest.raises(DegenerateDirectionError):
                xy_error_axis(build_builtin("naive", Z_PI), model, mpf("1e-2"))

    def test_orthogonal_to_known_error_direction(self):
        model = PerChannel({"target": CovariantVector.constant((mpf("0.6"), mpf("0.8"), 0))})
        axis = xy_error_axis(build_builtin("naive", Z_PI), model, mpf("1e-3"))
        dot = axis[0] * mpf("0.6") + axis[1] * mpf("0.8")
        assert fabs(dot) < mpf("1e-12")
        assert fabs(axis[0] ** 2 + axis[1] ** 2 - 1) < mpf("1e-12")

    def test_unsymmetrized_b2_axis_raises_corrected_slope_above_six(self):
        with working_digits(60):
            model = LinearOverRotation(1)
            b2seq = build_builtin("b2")
            axis = xy_error_axis(b2seq, model, mpf("1e-3"))
            corrected = pi3_correct(b2seq, axis)
            grid = default_scales("1e-4", "1e-2", 9)
            slope = fit_order(component_scan(corrected, model, grid)).slope
            assert slope > 6.5
            # whereas correcting about a plain xy axis does not help
            plain = pi3_correct(b2seq, (0, 1, 0))
            slope_plain = fit_order(component_scan(plain, model, grid)).slope
            assert abs(slope_plain - 6) < 0.1


class TestStencilWeights:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_moment_conditions(self, k):
        # sum_j w_j o_j**m = k! [m == k] for m = 0..4: exact for polynomials
        # of degree 4, so the stencil returns h**k f^(k)(0) + O(h**(5-k))
        weights = _stencil_weights(k)
        for m in range(5):
            moment = sum(w * Fraction(o) ** m for w, o in zip(weights, STENCIL_OFFSETS))
            assert moment == (factorial(k) if m == k else 0)

    @pytest.mark.parametrize("k", [-1, 0, 4, 5])
    def test_orders_outside_the_table_are_config_errors(self, k):
        with pytest.raises(ModelConfigError):
            _stencil_weights(k)


class TestInfidelityTable:
    def test_requires_extended_precision(self):
        with pytest.raises(PrecisionError):
            infidelity_table()

    def test_spot_values(self):
        with working_digits(50):
            table = infidelity_table(eps_values=("0.1",), names=("naive", "b2"))
            assert fabs(table[("0.1", "naive")] - mpf("1.2e-2")) < mpf("1.2e-2") * mpf("0.05")
            assert fabs(table[("0.1", "b2")] - mpf("4.6e-6")) < mpf("4.6e-6") * mpf("0.05")

    @staticmethod
    def _per_entry():
        """One entry per call, in the order the reference benchmark asks."""
        out = {}
        for name in TABLE_SEQUENCES:
            for eps in TABLE_EPS:
                out.update(infidelity_table((eps,), (name,)))
        return out

    # The table's bits at 60 and 80 digits are pinned by the evaluation-matrix
    # digest (tests/test_scripts.py).
    def test_per_entry_calls_give_the_whole_table(self):
        for digits in (60, 80, 60):
            with working_digits(digits):
                entries = self._per_entry()
                whole = infidelity_table()
                assert {k: v._mpf_ for k, v in entries.items()} == {k: v._mpf_ for k, v in whole.items()}

    @pytest.fixture
    def builds(self, monkeypatch):
        """Names passed to build_builtin by the table, from an empty cache."""
        names = []

        def counting(name):
            names.append(name)
            return build_builtin(name)

        monkeypatch.setattr(analysis, "build_builtin", counting)
        analysis._table_sequence.cache_clear()
        yield names
        analysis._table_sequence.cache_clear()

    @staticmethod
    def _fresh(name, eps):
        seq = build_builtin(name)
        return su2.infidelity(seq.ideal_unitary(), evaluate(seq, LinearOverRotation(1), mpf(eps)))._mpf_

    def test_each_sequence_is_built_once_over_all_precisions(self, builds):
        for digits in (60, 80, 60):
            with working_digits(digits):
                entries = self._per_entry()
                self._per_entry()
                assert sorted(builds) == sorted(TABLE_SEQUENCES)
                if digits == 80:
                    # a 60-digit build evaluates at 80 like a fresh 80-digit build
                    assert {k: v._mpf_ for k, v in entries.items()} == {
                        (eps, name): self._fresh(name, eps) for name in TABLE_SEQUENCES for eps in TABLE_EPS
                    }

    def test_more_names_than_kept_sequences(self, builds):
        names = TABLE_SEQUENCES + ("pi3:X",)
        with working_digits(60):
            for _ in range(2):
                table = infidelity_table(("0.1",), names)
                assert {k: v._mpf_ for k, v in table.items()} == {("0.1", n): self._fresh(n, "0.1") for n in names}
                assert analysis._table_sequence.cache_info().currsize <= len(TABLE_SEQUENCES)

    def test_too_few_digits_fail_before_any_build(self, builds):
        with working_digits(40):
            with pytest.raises(PrecisionError):
                infidelity_table(("0.1",), ("b4",))
        assert builds == []
