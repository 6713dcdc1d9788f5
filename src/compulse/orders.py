"""Min-plus bookkeeping of leading error orders under composite-pulse correction.

An error component of order k scales as eps**k; correcting about an axis
maps the order triple (a; b; c) of the (x, y, z) error components through
a min-plus rule.  Products of error terms add orders, sums of terms take
the minimum, and INFINITY marks an absent component.  The rules below give
guaranteed leading orders; numerically fitted slopes may exceed them when
coefficients cancel.

Three regimes are covered: perfect correction pulses, correction pulses
with frame-covariant vector errors of orders (d, e, f), and correction
pulses with axis-dependent first-order over-rotation.  Correction about y
or z is the x rule after cyclically relabeling components so the
correction axis occupies the first slot.  In the covariant regime the
(d, e, f) orders are read in the correction pulse's own frame, with d
along the correction axis: pure over-rotation is (1, inf, inf) for every
correction axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .su2 import LAB_AXES

INFINITY = math.inf

AXES = tuple(LAB_AXES)


class PlanningError(ValueError):
    """Order goal unreachable within the allowed depth."""


def parse_order(text: str):
    text = text.strip().lower()
    if text in ("inf", "infinity", "∞"):
        return INFINITY
    value = int(text)
    if value < 1:
        raise ValueError(f"orders are positive integers or inf, got {value}")
    return value


def format_order(value) -> str:
    return "inf" if value == INFINITY else str(value)


class OrderTriple(NamedTuple):
    """Orders (a; b; c) of the x, y, z error components."""

    a: object
    b: object
    c: object

    def __str__(self):
        return "(" + ";".join(format_order(v) for v in self) + ")"

    def min_order(self):
        return min(self)


class DeltaOrders(NamedTuple):
    """Orders (d, e, f) of a correction pulse's own-frame error vector."""

    d: object
    e: object
    f: object


NO_DELTAS = DeltaOrders(INFINITY, INFINITY, INFINITY)
OVERROTATION_DELTAS = DeltaOrders(1, INFINITY, INFINITY)


def _axis_index(axis: str) -> int:
    try:
        return AXES.index(axis.upper())
    except ValueError:
        raise ValueError(f"correction axis must be one of {AXES}, got {axis!r}") from None


def _to_slots(t: OrderTriple, k: int):
    return (t[k], t[(k + 1) % 3], t[(k + 2) % 3])


def _from_slots(s, k: int) -> OrderTriple:
    out = [None, None, None]
    for i in range(3):
        out[(k + i) % 3] = s[i]
    return OrderTriple(*out)


def _rule_perfect(a, b, c):
    return (
        min(a, 2 * b, 2 * c),
        min(3 * b, b + 2 * c),
        min(3 * c, c + 2 * b),
    )


def _rule_covariant(a, b, c, d, e, f):
    return (
        min(a, e + b, f + b, 2 * b, e + c, f + c, 2 * c),
        min(
            e + a, f + a,
            d + b, e + f + b, 2 * f + b, e + 2 * b, f + 2 * b, 3 * b,
            2 * e + c, e + f + c, 2 * f + c, e + 2 * c, f + 2 * c, b + 2 * c,
        ),
        min(
            e + a, f + a,
            2 * e + b, e + f + b, 2 * f + b, e + 2 * b, f + 2 * b,
            d + c, 2 * e + c, e + f + c, 2 * b + c, e + 2 * c, f + 2 * c, 3 * c,
        ),
    )


def _rule_axis_dependent(a, b, c):
    return (
        min(a, 2 * b, 2 * c),
        min(3 * b, b + 2 * c, 1 + b, 1 + c),
        min(3 * c, c + 2 * b, 1 + b, 1 + c),
    )


def correct_perfect(t: OrderTriple, axis: str) -> OrderTriple:
    """Order update for correction with perfect auxiliary rotations."""
    k = _axis_index(axis)
    return _from_slots(_rule_perfect(*_to_slots(OrderTriple(*t), k)), k)


def correct_covariant(t: OrderTriple, dl: DeltaOrders, axis: str) -> OrderTriple:
    """Order update when correction pulses carry covariant vector errors of
    orders ``dl`` (own-frame: d along the correction axis).  With all-inf
    deltas this reduces exactly to :func:`correct_perfect`."""
    k = _axis_index(axis)
    slots = _to_slots(OrderTriple(*t), k)
    return _from_slots(_rule_covariant(*slots, *DeltaOrders(*dl)), k)


def correct_axis_dependent(t: OrderTriple, axis: str) -> OrderTriple:
    """Order update when correction pulses have first-order over-rotations
    that may differ between the two conjugation classes."""
    k = _axis_index(axis)
    return _from_slots(_rule_axis_dependent(*_to_slots(OrderTriple(*t), k)), k)


REGIMES = ("perfect", "covariant", "axisdep")


def apply_regime(t: OrderTriple, axis: str, regime: str, deltas: Optional[DeltaOrders] = None):
    if regime == "perfect":
        return correct_perfect(t, axis)
    if regime == "covariant":
        return correct_covariant(t, deltas if deltas is not None else OVERROTATION_DELTAS, axis)
    if regime == "axisdep":
        return correct_axis_dependent(t, axis)
    raise ValueError(f"unknown regime {regime!r} (expected one of {REGIMES})")


def pulse_count(levels: int) -> int:
    """Length after ``levels`` concatenations onto one pulse: n -> 3n + 4
    from n = 1, in closed form."""
    return 3 ** (levels + 1) - 2


@dataclass(frozen=True)
class Plan:
    schedule: tuple
    triples: tuple  # start plus one triple per step
    total_pulses: int
    target_pulses: int
    correction_pulses: int

    @property
    def final(self) -> OrderTriple:
        return self.triples[-1]


def plan(
    start: OrderTriple,
    regime: str = "perfect",
    deltas: Optional[DeltaOrders] = None,
    goal_min_order: Optional[int] = None,
    depth: Optional[int] = None,
    max_depth: int = 64,
) -> Plan:
    """Greedy correction-axis schedule.

    Each step picks the axis maximizing the resulting minimum component
    order, tie-broken by the larger sum of orders, then by X < Y < Z.
    Either ``depth`` (run exactly that many steps) or ``goal_min_order``
    (run until min order reaches the goal) must be given.
    """
    if (goal_min_order is None) == (depth is None):
        raise ValueError("give exactly one of goal_min_order or depth")
    t = OrderTriple(*start)
    schedule = []
    triples = [t]

    def done():
        if depth is not None:
            return len(schedule) >= depth
        return t.min_order() >= goal_min_order

    while not done():
        if len(schedule) >= max_depth:
            raise PlanningError(
                f"min order {format_order(t.min_order())} after {max_depth} corrections, "
                f"goal {goal_min_order} unreachable"
            )
        best = None
        for axis in AXES:
            cand = apply_regime(t, axis, regime, deltas)
            score = (cand.min_order(), sum(cand))
            if best is None or score > best[0]:
                best = (score, axis, cand)
        _, axis, t = best
        schedule.append(axis)
        triples.append(t)

    total = pulse_count(len(schedule))
    targets = 3 ** len(schedule)
    return Plan(tuple(schedule), tuple(triples), total, targets, total - targets)
