import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compulse.orders import (
    AXES,
    INFINITY,
    DeltaOrders,
    NO_DELTAS,
    OVERROTATION_DELTAS,
    OrderTriple,
    PlanningError,
    correct_axis_dependent,
    correct_covariant,
    correct_perfect,
    parse_order,
    plan,
    pulse_count,
)

INF = INFINITY

order_values = st.one_of(st.integers(min_value=1, max_value=40), st.just(INF))
triples = st.tuples(order_values, order_values, order_values).map(lambda t: OrderTriple(*t))
delta_values = st.tuples(order_values, order_values, order_values).map(lambda t: DeltaOrders(*t))


class TestPerfectRule:
    def test_x_rule_on_pure_z_error(self):
        assert correct_perfect(OrderTriple(INF, INF, 1), "X") == OrderTriple(2, INF, 3)

    def test_nothing_transverse_to_cancel(self):
        t = OrderTriple(5, INF, INF)
        assert correct_perfect(t, "X") == t

    def test_full_alternating_chain(self):
        t = OrderTriple(INF, INF, 1)
        expected = [
            OrderTriple(2, INF, 3),
            OrderTriple(6, 4, 7),
            OrderTriple(14, 12, 7),
            OrderTriple(14, 26, 21),
            OrderTriple(42, 26, 49),
            OrderTriple(94, 78, 49),
        ]
        for axis, want in zip("XYZXYZ", expected):
            t = correct_perfect(t, axis)
            assert t == want

    def test_y_rule_matches_hand_expansion(self):
        # correction about y: a' = min(3a, a+2c); b' = min(b, 2a, 2c); c' = min(3c, c+2a)
        for _ in range(200):
            rng = random.Random(_)
            t = OrderTriple(*(rng.choice([1, 2, 3, 5, 8, INF]) for _ in range(3)))
            got = correct_perfect(t, "Y")
            want = OrderTriple(
                min(3 * t.a, t.a + 2 * t.c),
                min(t.b, 2 * t.a, 2 * t.c),
                min(3 * t.c, t.c + 2 * t.a),
            )
            assert got == want

    @given(triples, st.sampled_from(AXES))
    def test_leading_order_never_decreases(self, t, axis):
        # components can individually drop (transverse products feed back),
        # but every output order stays at or above the input minimum
        out = correct_perfect(t, axis)
        assert min(out) >= min(t)
        assert all(o >= min(t) for o in out)

    def test_case_insensitive_axis(self):
        assert correct_perfect(OrderTriple(INF, INF, 1), "x") == OrderTriple(2, INF, 3)


class TestCovariantRule:
    def test_reduces_to_perfect_with_inf_deltas(self):
        rng = random.Random(20240817)
        choices = [1, 2, 3, 4, 7, 11, INF]
        for _ in range(10_000):
            t = OrderTriple(*(rng.choice(choices) for _ in range(3)))
            axis = rng.choice(AXES)
            assert correct_covariant(t, NO_DELTAS, axis) == correct_perfect(t, axis)

    def test_first_order_overrotation_chain(self):
        t = OrderTriple(INF, INF, 1)
        for axis in ("X", "Y", "Y"):
            t = correct_covariant(t, OVERROTATION_DELTAS, axis)
        assert t == OrderTriple(4, 4, 4)

    def test_corrected_pulses_triple_every_three_levels(self):
        t = OrderTriple(4, 4, 4)
        dl = DeltaOrders(4, 4, 4)
        for axis in ("X", "Y", "Z"):
            t = correct_covariant(t, dl, axis)
        assert t == OrderTriple(12, 12, 12)

    @given(triples, delta_values, st.sampled_from(AXES))
    def test_leading_order_never_decreases(self, t, dl, axis):
        out = correct_covariant(t, dl, axis)
        assert min(out) >= min(t)

    @given(triples, delta_values, st.sampled_from(AXES))
    def test_never_better_than_perfect(self, t, dl, axis):
        noisy = correct_covariant(t, dl, axis)
        clean = correct_perfect(t, axis)
        assert all(n <= c for n, c in zip(noisy, clean))


class TestAxisDependentRule:
    def test_first_step(self):
        assert correct_axis_dependent(OrderTriple(INF, INF, 1), "X") == OrderTriple(2, 2, 2)

    def test_printed_chain(self):
        t = OrderTriple(INF, INF, 1)
        expected = [
            OrderTriple(2, 2, 2),
            OrderTriple(2, 3, 3),
            OrderTriple(3, 3, 3),
            OrderTriple(3, 4, 4),
        ]
        for axis, want in zip("XXYX", expected):
            t = correct_axis_dependent(t, axis)
            assert t == want

    def test_min_order_gains_one_per_two_corrections(self):
        t = OrderTriple(INF, INF, 1)
        mins = []
        for k in range(20):
            t = correct_axis_dependent(t, "XY"[k % 2])
            mins.append(min(t))
        # after a short transient, two corrections buy one order
        assert mins[19] - mins[9] == 5

    def test_y_rule_matches_hand_expansion(self):
        # relabeled x rule: a' = min(3a, a+2c, 1+a, 1+c); b' = min(b, 2c, 2a);
        # c' = min(3c, c+2a, 1+a, 1+c)
        rng = random.Random(9)
        for _ in range(200):
            t = OrderTriple(*(rng.choice([1, 2, 3, 5, 8, INF]) for _ in range(3)))
            got = correct_axis_dependent(t, "Y")
            want = OrderTriple(
                min(3 * t.a, t.a + 2 * t.c, 1 + t.a, 1 + t.c),
                min(t.b, 2 * t.c, 2 * t.a),
                min(3 * t.c, t.c + 2 * t.a, 1 + t.a, 1 + t.c),
            )
            assert got == want

    @given(triples, st.sampled_from(AXES))
    def test_leading_order_never_decreases(self, t, axis):
        out = correct_axis_dependent(t, axis)
        assert min(out) >= min(t)


class TestPulseCount:
    def test_recurrence(self):
        assert [pulse_count(k) for k in range(7)] == [1, 7, 25, 79, 241, 727, 2185]
        n = 1
        for k in range(65):
            assert pulse_count(k) == n
            n = 3 * n + 4


class TestPlan:
    def test_perfect_regime_reproduces_alternating_schedule(self):
        p = plan(OrderTriple(INF, INF, 1), "perfect", depth=6)
        assert p.schedule == ("X", "Y", "Z", "X", "Y", "Z")
        assert p.final == OrderTriple(94, 78, 49)
        assert p.target_pulses == 729
        assert p.correction_pulses == 1456

    def test_covariant_regime_starts_x_y_y(self):
        p = plan(OrderTriple(INF, INF, 1), "covariant", deltas=OVERROTATION_DELTAS, depth=3)
        assert p.schedule == ("X", "Y", "Y")
        assert p.final == OrderTriple(4, 4, 4)

    def test_axis_dependent_regime(self):
        p = plan(OrderTriple(INF, INF, 1), "axisdep", depth=4)
        assert p.final == OrderTriple(3, 4, 4)

    def test_goal_already_met_gives_empty_schedule(self):
        p = plan(OrderTriple(1, 1, 1), "perfect", goal_min_order=1)
        assert p.schedule == ()
        assert p.total_pulses == 1

    def test_goal_mode_runs_until_reached(self):
        p = plan(OrderTriple(INF, INF, 1), "perfect", goal_min_order=20)
        assert min(p.final) >= 20
        assert min(p.triples[-2]) < 20

    def test_unreachable_goal_raises(self):
        with pytest.raises(PlanningError):
            plan(OrderTriple(1, 1, 1), "axisdep", goal_min_order=100, max_depth=10)

    def test_requires_exactly_one_stop_condition(self):
        with pytest.raises(ValueError):
            plan(OrderTriple(1, 1, 1), "perfect")
        with pytest.raises(ValueError):
            plan(OrderTriple(1, 1, 1), "perfect", goal_min_order=2, depth=2)


class TestParseOrder:
    def test_values(self):
        assert parse_order("3") == 3
        assert parse_order("inf") == INF
        assert parse_order("∞") == INF

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_order("0")
