"""Min-plus bookkeeping of leading error orders under composite-pulse correction.

An error component of order k scales as eps**k; correcting about an axis
maps the order triple (a; b; c) of the (x, y, z) error components through
a min-plus rule.  Products of error terms add orders, sums of terms take
the minimum, and INFINITY marks an absent component.  The rules below give
guaranteed leading orders; numerically fitted slopes may exceed them when
coefficients cancel.

Three regimes are covered: perfect correction pulses, correction pulses
with frame-covariant vector errors of orders (d, e, f), and correction
pulses with axis-dependent first-order over-rotation.  Each imperfect
rule is the perfect rule plus the terms that the correction pulses' own
errors add.  The rules are written for correction about x; one cyclic
relabelling, which puts the correction axis in the first slot, carries
them to y and z.  Covariant orders (d, e, f) are read in the correction
pulse's own frame, with d along the correction axis: pure over-rotation
is (1, inf, inf) for every correction axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .precision import parse_integer, quoted
from .sequences import SequenceError, pulse_count
from .su2 import LAB_AXES

INFINITY = math.inf

AXES = tuple(LAB_AXES)


class PlanningError(ValueError):
    """Order goal unreachable within the allowed depth."""


def parse_order(text: str):
    text = text.strip().lower()
    if text in ("inf", "infinity", "∞"):
        return INFINITY
    try:
        value = parse_integer(text)
    except ValueError:
        raise ValueError(f"orders are positive integers or inf, got {quoted(text)}") from None
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


class DeltaOrders(NamedTuple):
    """Orders (d, e, f) of a correction pulse's own-frame error vector."""

    d: object
    e: object
    f: object


OVERROTATION_DELTAS = DeltaOrders(1, INFINITY, INFINITY)


def _axis_index(axis: str) -> int:
    try:
        return AXES.index(axis.upper())
    except ValueError:
        raise ValueError(f"correction axis must be one of {AXES}, got {axis!r}") from None


def _rule_perfect(a, b, c):
    return (
        min(a, 2 * b, 2 * c),
        min(3 * b, b + 2 * c),
        min(3 * c, c + 2 * b),
    )


def _rule_covariant(a, b, c, d, e, f):
    x, y, z = _rule_perfect(a, b, c)
    return (
        min(x, e + b, f + b, e + c, f + c),
        min(
            y, e + a, f + a,
            d + b, e + f + b, 2 * f + b, e + 2 * b, f + 2 * b,
            2 * e + c, e + f + c, 2 * f + c, e + 2 * c, f + 2 * c,
        ),
        min(
            z, e + a, f + a,
            2 * e + b, e + f + b, 2 * f + b, e + 2 * b, f + 2 * b,
            d + c, 2 * e + c, e + f + c, e + 2 * c, f + 2 * c,
        ),
    )


def _rule_axis_dependent(a, b, c):
    x, y, z = _rule_perfect(a, b, c)
    return x, min(y, 1 + b, 1 + c), min(z, 1 + b, 1 + c)


def _correct_about(axis: str, rule, t: OrderTriple, *deltas) -> OrderTriple:
    """The x ``rule`` about ``axis``: rotate the axis into the first slot, apply, rotate back."""
    k = _axis_index(axis)
    t = OrderTriple(*t)
    out = rule(*t[k:], *t[:k], *deltas)
    return OrderTriple(*out[3 - k:], *out[:3 - k])


def correct_perfect(t: OrderTriple, axis: str) -> OrderTriple:
    """Order update for correction with perfect auxiliary rotations."""
    return _correct_about(axis, _rule_perfect, t)


def correct_covariant(t: OrderTriple, dl: DeltaOrders, axis: str) -> OrderTriple:
    """Order update when correction pulses carry covariant vector errors of
    orders ``dl`` (own-frame: d along the correction axis).  With all-inf
    deltas this reduces exactly to :func:`correct_perfect`."""
    return _correct_about(axis, _rule_covariant, t, *DeltaOrders(*dl))


def correct_axis_dependent(t: OrderTriple, axis: str) -> OrderTriple:
    """Order update when correction pulses have first-order over-rotations
    that may differ between the two conjugation classes."""
    return _correct_about(axis, _rule_axis_dependent, t)


REGIMES = ("perfect", "covariant", "axisdep")


def apply_regime(t: OrderTriple, axis: str, regime: str, deltas: Optional[DeltaOrders] = None):
    if regime == "perfect":
        return correct_perfect(t, axis)
    if regime == "covariant":
        return correct_covariant(t, deltas if deltas is not None else OVERROTATION_DELTAS, axis)
    if regime == "axisdep":
        return correct_axis_dependent(t, axis)
    raise ValueError(f"unknown regime {regime!r} (expected one of {REGIMES})")


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


MAX_DEPTH = 64


def plan(
    start: OrderTriple,
    regime: str = "perfect",
    deltas: Optional[DeltaOrders] = None,
    goal_min_order: Optional[int] = None,
    depth: Optional[int] = None,
) -> Plan:
    """Greedy correction-axis schedule.

    Each step picks the axis maximizing the resulting minimum component
    order, tie-broken by the larger sum of orders, then by X < Y < Z.
    Either ``depth`` (run exactly that many steps, 0..MAX_DEPTH) or
    ``goal_min_order`` (run until min order reaches the goal, at most
    MAX_DEPTH steps) must be given.  ``deltas`` is for the covariant
    regime only.
    """
    if (goal_min_order is None) == (depth is None):
        raise ValueError("give exactly one of goal_min_order or depth")
    if depth is not None and not 0 <= depth <= MAX_DEPTH:
        raise SequenceError(f"correction depth {depth} outside 0..{MAX_DEPTH}")
    if goal_min_order is not None and goal_min_order < 1:
        raise SequenceError(f"goal order {goal_min_order} below 1: orders are positive integers")
    if deltas is not None and regime != "covariant":
        raise SequenceError(f"delta orders apply to the covariant regime only, not {regime!r}")
    t = OrderTriple(*start)
    schedule = []
    triples = [t]
    while (len(schedule) < depth) if depth is not None else (min(t) < goal_min_order):
        if len(schedule) >= MAX_DEPTH:
            raise PlanningError(
                f"min order {format_order(min(t))} after {MAX_DEPTH} corrections, goal {goal_min_order} unreachable"
            )
        steps = ((axis, apply_regime(t, axis, regime, deltas)) for axis in AXES)
        axis, t = max(steps, key=lambda step: (min(step[1]), sum(step[1])))
        schedule.append(axis)
        triples.append(t)

    total = pulse_count(len(schedule))
    targets = 3 ** len(schedule)
    return Plan(tuple(schedule), tuple(triples), total, targets, total - targets)
