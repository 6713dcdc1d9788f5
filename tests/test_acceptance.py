"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by.  Everything numerical runs at 60 digits, except criterion 3's golden
chains, which are fitted at 100 and 200, and criterion 4's coefficients,
which are also read at 16.
"""

from fractions import Fraction

import pytest
from mpmath import fabs, log, mp, mpf, pi, sqrt

from compulse import su2
from compulse.analysis import (
    FitError,
    axis_dependent_family,
    component_scan,
    covariant_family,
    default_scales,
    fit_order,
    fit_points,
    infidelity_table,
    series_coefficient,
    target_vector_family,
)
from compulse.error_models import (
    AxisDependentPi3,
    AxisOverRotation,
    CovariantVector,
    LinearOverRotation,
    PerChannel,
)
from compulse.orders import (
    INFINITY,
    DeltaOrders,
    OVERROTATION_DELTAS,
    OrderTriple,
    correct_axis_dependent,
    correct_covariant,
    correct_perfect,
)
from compulse.precision import set_digits, working_digits
from compulse.sequences import (
    build_builtin,
    evaluate,
    naive,
    pi3_correct,
    pi5_sequence,
    target_pulse,
    total_angle,
)

INF = INFINITY
Z_PI = target_pulse((0, 0, 1), Fraction(1, 2))

DIGITS = 60
GRID = None  # filled per test after set_digits


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num} [{status}] {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc} {suffix}"


@pytest.fixture(autouse=True)
def _extended_precision():
    set_digits(DIGITS)
    yield


# 1 ------------------------------------------------------------------------

TABLE_EXPECTED = {
    #          naive      b2         b4         pi3:Y      pi3Y.b2sym  pi3Y.b4sym
    "0.3": ("1.1e-1", "3.0e-3", "7.2e-5", "4.9e-2", "1.0e-3", "2.4e-5"),
    "0.1": ("1.2e-2", "4.6e-6", "1.6e-9", "6.5e-4", "1.6e-7", "5.6e-11"),
    "0.03": ("1.1e-3", "3.4e-9", "9.7e-15", "5.2e-6", "1.0e-11", "2.9e-17"),
    "0.01": ("1.2e-4", "4.7e-12", "1.7e-19", "6.4e-8", "1.6e-15", "5.5e-23"),
    "0.003": ("1.1e-5", "3.4e-15", "9.8e-25", "5.1e-10", "1.0e-19", "2.9e-29"),
    "0.001": ("1.2e-6", "4.7e-18", "1.7e-29", "6.3e-12", "1.5e-23", "5.5e-35"),
}
TABLE_COLUMNS = ("naive", "b2", "b4", "pi3:Y", "pi3Y∘b2sym", "pi3Y∘b4sym")


def test_criterion_1_infidelity_table():
    import time

    start = time.perf_counter()
    table = infidelity_table()
    elapsed = time.perf_counter() - start
    worst = mpf(0)
    for eps, row in TABLE_EXPECTED.items():
        for name, want_str in zip(TABLE_COLUMNS, row):
            got = table[(eps, name)]
            want = mpf(want_str)
            worst = max(worst, fabs(got - want) / want)
    ok = worst < mpf("0.05") and elapsed < 60
    report(1, "36-entry infidelity table to 2 significant figures",
           ok, f"worst rel dev {float(worst):.3f}, {elapsed:.1f}s")


# 2 ------------------------------------------------------------------------


def test_criterion_2_infidelity_slopes():
    grid = default_scales("1e-4", "1e-2", 9)
    model = LinearOverRotation(1)
    want = {"naive": 2, "pi3:Y": 4, "b2": 6, "pi3Y∘b2sym": 8, "b4": 10, "pi3Y∘b4sym": 12}
    devs = {}
    for name, target in want.items():
        fit = fit_order(component_scan(build_builtin(name), model, grid))
        devs[name] = abs(fit.slope - target)
    ok = all(d <= 0.1 for d in devs.values())
    detail = ", ".join(f"{n} {d:.3f}" for n, d in devs.items())
    report(2, "fitted infidelity slopes 2/4/6/8/10/12 within 0.1", ok, detail)


# 3 ------------------------------------------------------------------------


def test_criterion_3_order_calculus_golden_chains():
    t = OrderTriple(INF, INF, 1)
    for axis in "XYZXYZ":
        t = correct_perfect(t, axis)
    chain_perfect = t == OrderTriple(94, 78, 49)

    t = OrderTriple(INF, INF, 1)
    for axis in ("X", "Y", "Y"):
        t = correct_covariant(t, OVERROTATION_DELTAS, axis)
    chain_overrot = t == OrderTriple(4, 4, 4)

    t = OrderTriple(4, 4, 4)
    for axis in ("X", "Y", "Z"):
        t = correct_covariant(t, DeltaOrders(4, 4, 4), axis)
    chain_corrected = t == OrderTriple(12, 12, 12)

    t = OrderTriple(INF, INF, 1)
    for axis in ("X", "X", "Y", "X"):
        t = correct_axis_dependent(t, axis)
    chain_axisdep = t == OrderTriple(3, 4, 4)

    ok = chain_perfect and chain_overrot and chain_corrected and chain_axisdep
    report(3, "golden min-plus chains (94;78;49), (4;4;4), (12;12;12), (3;4;4)", ok)


def _local_slopes(spec, model, digits, eps_hi, eps_lo):
    """Log-log slopes of |cx|, |cy|, |cz| of ``spec`` on z-pi between two scales."""
    with working_digits(digits):
        seq = build_builtin(spec, Z_PI)
        ideal = seq.ideal_unitary()
        hi, lo = (su2.trace_components(ideal, evaluate(seq, model, mpf(e))) for e in (eps_hi, eps_lo))
        return [float(log(fabs(a) / fabs(b)) / log(mpf(eps_hi) / mpf(eps_lo))) for a, b in zip(hi, lo)]


def test_criterion_3_golden_chains_hold_numerically():
    # (94;78;49) with ideal corrections; (12;12;12) stays symbolic, as no
    # model kind gives the correction pulses errors of order 4 in the scale
    t = OrderTriple(INF, INF, 1)
    for axis in "XYZXYZ":
        t = correct_perfect(t, axis)
    target_only = PerChannel({"target": LinearOverRotation(1)})
    perfect = _local_slopes("concat:XYZXYZ", target_only, 200, "0.1", "0.05")

    # (3;4;4) with axis-dependent pi/3 errors, delta != deltahat
    t_axisdep = OrderTriple(INF, INF, 1)
    for axis in "XXYX":
        t_axisdep = correct_axis_dependent(t_axisdep, axis)

    def axisdep(delta_hat):
        model = PerChannel({"target": LinearOverRotation(1), "pi3": AxisDependentPi3(1, delta_hat)})
        return _local_slopes("concat:XXYX", model, 100, "0.01", "0.005")

    distinct, equal = axisdep(2), axisdep(1)
    ok = (
        all(abs(s - order) < 1 for s, order in zip(perfect, t))
        and all(abs(s - order) < 1 for s, order in zip(distinct, t_axisdep))
    )
    detail = f"{[f'{s:.2f}' for s in perfect]} vs {t}, {[f'{s:.2f}' for s in distinct]} vs {t_axisdep}"
    report(3, "golden chains hold numerically within 1 order", ok, detail)
    # at delta = deltahat the rule is only a bound: y and z run one order ahead
    assert [round(s) for s in equal] == [order + ahead for order, ahead in zip(t_axisdep, (0, 1, 1))], equal


# 4 ------------------------------------------------------------------------


@pytest.mark.parametrize("digits, tolerance", [(60, "1e-55"), (16, "1e-14")])
def test_criterion_4_series_coefficients(digits, tolerance):
    with working_digits(digits):
        seq = pi3_correct(naive(Z_PI), (1, 0, 0))
        sqrt3 = sqrt(mpf(3))
        cases = [
            (target_vector_family(), {"ex": 1}, "x", mpf(2)),
            (target_vector_family(), {"ey": 2}, "x", -sqrt3),
            (target_vector_family(), {"ez": 2}, "x", -sqrt3),
            (target_vector_family(), {"ey": 3}, "y", mpf(2)),
            (target_vector_family(), {"ey": 1, "ez": 2}, "y", mpf(2)),
            (covariant_family(), {"dy": 1, "ex": 1}, "y", 2 * sqrt3),
            (covariant_family(), {"dz": 1, "ex": 1}, "y", mpf(2)),
            (covariant_family(), {"dx": 1, "ey": 1}, "y", -4 * sqrt3),
            (axis_dependent_family(), {"d": 1, "ey": 1}, "y", -2 * sqrt3),
            (axis_dependent_family(), {"dh": 1, "ey": 1}, "y", -2 * sqrt3),
            (axis_dependent_family(), {"d": 1, "ez": 1}, "y", mpf(-2)),
            (axis_dependent_family(), {"dh": 1, "ez": 1}, "y", mpf(2)),
        ]
        worst = mpf(0)
        for family, orders, component, want in cases:
            got = series_coefficient(seq, family, orders, component)
            worst = max(worst, fabs(got - want) / fabs(want))
    ok = worst < mpf(tolerance)
    report(4, f"12 printed series coefficients at {digits} digits to {tolerance}",
           ok, f"worst rel dev {float(worst):.2e}")


# 5 ------------------------------------------------------------------------


def test_criterion_5_five_application_sequence():
    grid = default_scales("1e-4", "1e-2", 9)
    gate = target_pulse((0, 0, 1), Fraction(1, 4))  # pi/2 pulse about z

    seq = pi5_sequence(gate, perfect=True)
    ideal = seq.ideal_unitary()
    model = LinearOverRotation(1)
    vals = [su2.state_fidelity_error(ideal, evaluate(seq, model, s)) for s in grid]
    slope_perfect = fit_points(grid, vals).slope

    # generic (vector) imperfections on the correction rotations
    seq_i = pi5_sequence(gate, perfect=False)
    model_i = PerChannel(
        {
            "target": LinearOverRotation(1),
            "pi3": CovariantVector.constant((mpf("0.23"), mpf("-0.41"), mpf("0.17"))),
        }
    )
    vals_i = [su2.state_fidelity_error(ideal, evaluate(seq_i, model_i, s)) for s in grid]
    slope_imperfect = fit_points(grid, vals_i).slope

    ok = slope_perfect >= 9.8 and abs(slope_imperfect - 2) <= 0.2
    report(5, "plus/minus-state fidelity slope >= 10 perfect, ~2 imperfect",
           ok, f"perfect {slope_perfect:.3f}, imperfect {slope_imperfect:.3f}")


# 6 ------------------------------------------------------------------------


def _slope_or_inf(scan, column):
    try:
        return fit_order(scan, column).slope
    except FitError:
        return float("inf")  # every point below the floor: empty to all orders


def test_criterion_6_numerics_vs_calculus():
    grid = default_scales("1e-4", "1e-2", 9)

    level1 = pi3_correct(naive(Z_PI), (1, 0, 0))
    scan1 = component_scan(level1, PerChannel({"target": LinearOverRotation(1)}), grid)
    sx = _slope_or_inf(scan1, "cx")
    sy = _slope_or_inf(scan1, "cy")
    sz = _slope_or_inf(scan1, "cz")
    level1_ok = sx >= 1.95 and sy >= 8 and sz >= 2.95

    chain = build_builtin("concat:XYY", Z_PI)
    scan2 = component_scan(chain, LinearOverRotation(1), grid)
    slopes2 = [_slope_or_inf(scan2, c) for c in ("cx", "cy", "cz")]
    chain_ok = all(s >= 3.9 for s in slopes2)

    ok = level1_ok and chain_ok
    report(6, "component slopes match calculus predictions (level-1 and X,Y,Y chain)",
           ok, f"level1 ({sx:.2f}, {sy}, {sz:.2f}), chain {[f'{s:.2f}' for s in slopes2]}")


# 7 ------------------------------------------------------------------------


def test_criterion_7_length_and_count_bookkeeping():
    lengths_ok = (
        total_angle(build_builtin("b2")) == Fraction(5)
        and total_angle(build_builtin("b4")) == Fraction(41)
        and total_angle(build_builtin("pi3:Y")) == Fraction(3) + Fraction(4, 3)
        and total_angle(pi3_correct(build_builtin("pi3:Y"), (1, 0, 0))) == Fraction(43, 3)
    )
    seq = build_builtin("naive")
    for _ in range(6):
        seq = pi3_correct(seq, (0, 1, 0))
    counts_ok = seq.pulse_counts() == (729, 1456)
    ok = lengths_ok and counts_ok
    report(7, "sequence lengths 5pi/41pi/(3+4/3)pi/(43/3)pi and 729+1456 pulses", ok)


# 8 ------------------------------------------------------------------------


def test_criterion_8_symmetrized_error_leaves_y():
    grid = default_scales("1e-4", "1e-2", 9)
    scan = component_scan(build_builtin("b2sym"), LinearOverRotation(1), grid)
    sx = _slope_or_inf(scan, "cx")
    sy = _slope_or_inf(scan, "cy")
    sz = _slope_or_inf(scan, "cz")
    ok = sy > sx and sy > sz
    report(8, "symmetrized b2 pushes the error into the xz plane",
           ok, f"slopes x {sx:.2f}, y {sy}, z {sz:.2f}")


# 9 ------------------------------------------------------------------------


def test_criterion_9_nonlinear_overrotation():
    grid = default_scales("1e-4", "1e-2", 9)
    # eps(theta) = 0.01 * (theta/pi)^2, a genuinely angle-dependent error
    quad = AxisOverRotation((0, 0, mpf("0.01") / pi**2))
    slope_naive = fit_order(component_scan(build_builtin("naive"), quad, grid)).slope
    slope_corr = fit_order(component_scan(build_builtin("pi3:Y"), quad, grid)).slope
    ok = slope_corr >= 3.9 and abs(slope_naive - 2) <= 0.1
    report(9, "quadratic over-rotation: correction reaches slope >= 4, naive stays 2",
           ok, f"naive {slope_naive:.3f}, corrected {slope_corr:.3f}")
