from fractions import Fraction
from math import factorial

import pytest
from mpmath import fabs, mp, mpf, sqrt

from compulse import su2
from compulse.analysis import (
    _STENCIL_OFFSETS,
    DegenerateDirectionError,
    FitError,
    component_scan,
    covariant_family,
    default_scales,
    fit_order,
    fit_points,
    format_sci,
    infidelity_table,
    series_coefficient,
    target_vector_family,
    to_csv,
    xy_error_axis,
    _stencil_weights,
)
from compulse.error_models import CovariantVector, LinearOverRotation, ModelConfigError, PerChannel
from compulse.precision import PrecisionError, working_digits
from compulse.sequences import Gate, build_builtin, naive, pi3_correct

X = (1, 0, 0)
Z_PI = Gate((0, 0, 1), Fraction(1, 2))


class TestDefaultScales:
    def test_covers_three_decades(self):
        scales = default_scales()
        assert len(scales) == 28
        assert fabs(scales[0] - mpf("0.1")) < mpf("1e-12")
        assert fabs(scales[-1] - mpf("1e-4")) < mpf("1e-16")

    def test_strictly_decreasing(self):
        scales = default_scales("1e-3", "1e-1", 5)
        assert all(a > b for a, b in zip(scales, scales[1:]))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            default_scales("1e-1", "1e-4")


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

    def test_naive_infidelity_slope_two(self):
        scan = component_scan(build_builtin("naive"), LinearOverRotation(1), default_scales())
        fit = fit_order(scan)
        assert abs(fit.slope - 2) < 0.05


class TestSeriesCoefficient:
    def test_requires_extended_precision(self):
        with pytest.raises(PrecisionError):
            series_coefficient(build_builtin("naive"), target_vector_family(), {"ez": 1}, "z")

    def test_closed_form_single_axis(self):
        # naive gate with a z generator error: cz = 2*sin(ez), so the
        # first and third derivatives are +2 and -2
        with working_digits(60):
            seq = build_builtin("naive")
            fam = target_vector_family()
            d1 = series_coefficient(seq, fam, {"ez": 1}, "z")
            d3 = series_coefficient(seq, fam, {"ez": 3}, "z")
            assert fabs(d1 - 2) < mpf("1e-8")
            # coefficient of ez^3 in 2*sin is -2/3! = -1/3
            assert fabs(d3 + Fraction(1, 3)) < mpf("1e-8")

    def test_mixed_derivative_of_known_product(self):
        # the corrected sequence's y component carries 2*sqrt(3)*dy*ex
        with working_digits(60):
            seq = pi3_correct(naive(Z_PI), X)
            got = series_coefficient(seq, covariant_family(), {"dy": 1, "ex": 1}, "y")
            assert fabs(got - 2 * sqrt(mpf(3))) < mpf("1e-8")

    def test_rejects_unknown_parameter(self):
        with working_digits(50):
            with pytest.raises(ValueError):
                series_coefficient(build_builtin("naive"), target_vector_family(), {"qq": 1}, "z")

    def test_rejects_empty_orders(self):
        with working_digits(50):
            with pytest.raises(ValueError):
                series_coefficient(build_builtin("naive"), target_vector_family(), {}, "z")


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
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_moment_conditions(self, k):
        # sum_j w_j o_j**m = k! [m == k] for m = 0..4: exact for polynomials
        # of degree 4, so the stencil returns h**k f^(k)(0) + O(h**(5-k))
        weights = _stencil_weights(k)
        for m in range(5):
            moment = sum(w * Fraction(o) ** m for w, o in zip(weights, _STENCIL_OFFSETS))
            assert moment == (factorial(k) if m == k else 0)

    @pytest.mark.parametrize("k", [-1, 0, 5])
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
