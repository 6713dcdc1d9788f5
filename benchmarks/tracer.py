"""In-process span tracer for the compulse benchmark.

The tracer wraps the library's public functions from outside: nothing in
``src/`` changes.  A wrapped call records one span (layer name, start,
end, parent span, op id).  Spans stay in memory, in flat arrays, until
:meth:`Tracer.write` saves them.

A function is patched under every name that callers resolve.  Modules
such as ``analysis`` and ``cli`` import ``evaluate`` and friends with
``from .x import y``, so besides the defining module every compulse
module namespace is searched for the same object.  Methods are patched on
the class that defines them; ``PerChannel`` overrides ``realize``, so it
is patched separately from ``ErrorModel``.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

MODULES = ("precision", "su2", "sequences", "error_models", "orders", "analysis", "cli")

# span name -> functions, as (defining module, attribute)
FUNCTIONS = {
    "precision.unit_tolerance": [("precision", "unit_tolerance")],
    "su2.multiply": [("su2", "multiply")],
    "su2.tighten_axis": [("su2", "tighten_axis")],
    "su2.from_generator": [("su2", "from_generator")],
    "su2.exp_pauli": [("su2", "exp_pauli")],
    "su2.reduce": [("su2", "trace_components"), ("su2", "infidelity"), ("su2", "log_pauli")],
    "sequences.build": [("sequences", "build_builtin")],
    "sequences.evaluate": [("sequences", "evaluate")],
    "sequences.parse": [("sequences", "parse")],
    "sequences.serialize": [("sequences", "serialize")],
    "orders.plan": [("orders", "plan")],
    "analysis.scan": [("analysis", "component_scan")],
    "analysis.fit": [("analysis", "fit_points"), ("analysis", "fit_order")],
    "analysis.format": [("analysis", "to_csv"), ("analysis", "format_sci")],
    "analysis.series": [("analysis", "series_coefficient")],
    "analysis.table": [("analysis", "infidelity_table")],
    "cli.main": [("cli", "main")],
}

# span name -> methods, as (defining module, class, attribute)
METHODS = {
    "sequences.pulse_derive": [
        ("sequences", "Pulse", "lab_axis"),
        ("sequences", "Pulse", "alpha"),
        ("sequences", "Pulse", "ideal_unitary"),
        ("sequences", "Pulse", "forward"),
    ],
    "sequences.pulse_construct": [("sequences", "Pulse", "__post_init__")],
    "error_models.realize": [
        ("error_models", "ErrorModel", "realize"),
        ("error_models", "PerChannel", "realize"),
    ],
}

EVALUATE = "sequences.evaluate"


def _module(name: str):
    return importlib.import_module(f"compulse.{name}")


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.child = array("d")  # time covered by direct children
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.flat_pulses = {}  # evaluate span index -> pulses in the sequence
        self.op_id = -1  # outside any op, as during set-up
        self._stack = []
        self._active = []
        self._patched = []
        self._t0 = perf_counter()

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        t = perf_counter()
        self.end[i] = t
        self._stack.pop()
        self._active[self.name[i]] -= 1
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        if name == EVALUATE:
            pulses = self.flat_pulses

            def traced(seq, *args, **kwargs):
                i = open_(nid)
                pulses[i] = len(seq.pulses)
                try:
                    return fn(seq, *args, **kwargs)
                finally:
                    close(i)

        else:

            def traced(*args, **kwargs):
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import compulse

        namespaces = [compulse] + [_module(m) for m in MODULES]
        for span, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                original = getattr(_module(mod_name), attr)
                wrapper = self.wrap(span, original)
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, alias, original, wrapper)
        for span, targets in METHODS.items():
            for mod_name, cls_name, attr in targets:
                cls = getattr(_module(mod_name), cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self.wrap(span, original))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self_s, and incl_s (outermost spans only,
        so recursion is not counted twice)."""
        out = {n: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for n in self.names}
        names = self.names
        for i in range(len(self.start)):
            agg = out[names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["self_s"] += dur - self.child[i]
            if self.outer[i]:
                agg["incl_s"] += dur
        return out

    def under_evaluate(self, name: str) -> tuple:
        """(calls, seconds) of ``name`` spans whose direct parent is an
        evaluate span: the per-pulse work of the flat evaluator."""
        nid, eid = self._ids.get(name), self._ids.get(EVALUATE)
        calls, secs = 0, 0.0
        if nid is None or eid is None:
            return calls, secs
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == nid and p >= 0 and self.name[p] == eid:
                calls += 1
                secs += self.end[i] - self.start[i]
        return calls, secs

    def flat_pulses_evaluated(self) -> int:
        return sum(self.flat_pulses.values())

    def write(self, path) -> None:
        """Spans as CSV, times in seconds from tracer creation."""
        t0 = self._t0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,op,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.op[i]},{self.names[self.name[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.parent[i]}\n"
                )
