"""The benchmark's workloads: inputs drawn from a seed, set-up, timed jobs,
and output checks.

A workload object is created during set-up: its constructor sets the
precision, draws the inputs and builds the sequences.  ``ops(k)`` lists
the operations of job ``k``; ``finish`` runs the job's remaining timed
work (merging scan rows, fits, CSV) and returns the job output.  Jobs
``k`` and ``k + job_kinds`` do the same work.  ``check`` and
``agreement`` run outside the timed region, on the first output of each
kind; `run.py` checks that every other output equals it.

The library is called through module attributes (``analysis.fit_order``
rather than an imported name) so that the tracer's patches are seen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
from typing import Callable, NamedTuple

from mpmath import fabs, log10, mpf, sqrt

from compulse import analysis, cli, error_models, orders, precision, sequences, su2

HIGH_DIGITS = 80  # precision of the agreement re-evaluation


class Op(NamedTuple):
    key: tuple
    fn: Callable
    flat_pulses: int  # pulses x evaluations performed by the op


def agreeing_digits(value, reference) -> float:
    """Agreeing significant digits of ``value`` against ``reference``,
    capped at the precision of the reference."""
    value, reference = mpf(value), mpf(reference)
    if value == reference:
        return float(HIGH_DIGITS)
    rel = fabs(value - reference) / fabs(reference)
    return min(float(HIGH_DIGITS), float(-log10(rel)))


def agreeing_digits_normwise(vector, reference) -> float:
    """Agreeing significant digits of a vector, relative to its largest
    component (a unitary's components are bounded by its unit norm)."""
    err = max(fabs(mpf(a) - mpf(b)) for a, b in zip(vector, reference))
    if err == 0:
        return float(HIGH_DIGITS)
    scale = max(fabs(mpf(b)) for b in reference)
    return min(float(HIGH_DIGITS), float(-log10(err / scale)))


def _jittered_grid(rng: random.Random, lo_exp: int, hi_exp: int, per_decade: int) -> tuple:
    """A log grid from 10**hi_exp down to 10**lo_exp with each point moved
    uniformly inside its own log cell (half a step either side)."""
    n = (hi_exp - lo_exp) * per_decade
    points = []
    for k in range(n + 1):
        x = hi_exp - (k + rng.uniform(-0.5, 0.5)) / per_decade
        points.append(mpf(f"{10.0 ** x:.6e}"))
    return tuple(points)


# ---------------------------------------------------------------------------
# reference: the paper's experiments on short sequences


# The paper's infidelity table, two significant figures, linear over-rotation.
TABLE_EXPECTED = {
    #          naive      b2         b4         pi3:Y      pi3Y.b2sym  pi3Y.b4sym
    "0.3": ("1.1e-1", "3.0e-3", "7.2e-5", "4.9e-2", "1.0e-3", "2.4e-5"),
    "0.1": ("1.2e-2", "4.6e-6", "1.6e-9", "6.5e-4", "1.6e-7", "5.6e-11"),
    "0.03": ("1.1e-3", "3.4e-9", "9.7e-15", "5.2e-6", "1.0e-11", "2.9e-17"),
    "0.01": ("1.2e-4", "4.7e-12", "1.7e-19", "6.4e-8", "1.6e-15", "5.5e-23"),
    "0.003": ("1.1e-5", "3.4e-15", "9.8e-25", "5.1e-10", "1.0e-19", "2.9e-29"),
    "0.001": ("1.2e-6", "4.7e-18", "1.7e-29", "6.3e-12", "1.5e-23", "5.5e-35"),
}
TABLE_TOLERANCE = mpf("0.05")  # relative, against two-figure values

SLOPES_EXPECTED = {"naive": 2, "b2": 6, "b4": 10, "pi3:Y": 4, "pi3Y∘b2sym": 8, "pi3Y∘b4sym": 12}
SLOPE_TOLERANCE = 0.1

# (family, orders, component, k, times sqrt(3)): coefficient k or k*sqrt(3)
# of pi3:X wrapped around a z pi pulse.
COEFFICIENTS = (
    ("target-vector", {"ex": 1}, "x", 2, False),
    ("target-vector", {"ey": 2}, "x", -1, True),
    ("target-vector", {"ez": 2}, "x", -1, True),
    ("target-vector", {"ey": 3}, "y", 2, False),
    ("target-vector", {"ey": 1, "ez": 2}, "y", 2, False),
    ("covariant", {"dy": 1, "ex": 1}, "y", 2, True),
    ("covariant", {"dz": 1, "ex": 1}, "y", 2, False),
    ("covariant", {"dx": 1, "ey": 1}, "y", -4, True),
    ("axisdep", {"d": 1, "ey": 1}, "y", -2, True),
    ("axisdep", {"dh": 1, "ey": 1}, "y", -2, True),
    ("axisdep", {"d": 1, "ez": 1}, "y", -2, False),
    ("axisdep", {"dh": 1, "ez": 1}, "y", 2, False),
)
COEFFICIENT_TOLERANCE = mpf("1e-6")  # relative


def _scan_row(seq, model, eps):
    """One scan row as an op; ``finish`` merges the rows of a job into a scan."""
    return lambda: analysis.component_scan(seq, model, (eps,))


def _stencil_evaluations(orders_spec: dict) -> int:
    """Evaluations a series coefficient makes: nonzero stencil weights per
    differentiated parameter, multiplied."""
    n = 1
    for k in orders_spec.values():
        n *= sum(1 for w in analysis._stencil_weights(k) if w != 0)
    return n


class Reference:
    """Infidelity table, order-scaling scans and fits with CSV, and the
    twelve series coefficients, all at 60 digits."""

    name = "reference"
    digits = 60
    job_kinds = 1

    def __init__(self, seed: int, workdir: str):
        precision.set_digits(self.digits)
        rng = random.Random(seed)
        self.names = analysis.TABLE_SEQUENCES
        self.grids = {name: _jittered_grid(rng, -4, -2, 9) for name in self.names}
        self.model = error_models.LinearOverRotation(1)
        self.seqs = {name: sequences.build_builtin(name) for name in self.names}
        self.series_seq = sequences.build_builtin("pi3:X", sequences.parse_target("z-pi"))

    def inputs(self) -> dict:
        return {
            "model": error_models.describe(self.model),
            "grids": {name: [analysis.format_sci(e, 6) for e in grid] for name, grid in self.grids.items()},
        }

    def flat_pulse_counts(self) -> dict:
        counts = {name: len(seq.pulses) for name, seq in self.seqs.items()}
        counts["pi3:X (z-pi)"] = len(self.series_seq.pulses)
        return counts

    def ops(self, k: int) -> list:
        out = []
        for name in self.names:
            n = len(self.seqs[name].pulses)
            for eps in analysis.TABLE_EPS:
                out.append(Op(("table", eps, name), self._table_entry(eps, name), n))
        for name in self.names:
            seq, n = self.seqs[name], len(self.seqs[name].pulses)
            for eps in self.grids[name]:
                out.append(Op(("row", name, eps), _scan_row(seq, self.model, eps), n))
        n = len(self.series_seq.pulses)
        for i, (family, spec, component, _, _) in enumerate(COEFFICIENTS):
            out.append(Op(("series", i), self._coefficient(family, spec, component), n * _stencil_evaluations(spec)))
        return out

    @staticmethod
    def _table_entry(eps, name):
        return lambda: analysis.infidelity_table((eps,), (name,))[(eps, name)]

    def _coefficient(self, family, spec, component):
        fam = analysis.FAMILIES[family]()
        return lambda: analysis.series_coefficient(self.series_seq, fam, spec, component)

    def finish(self, k: int, results: dict) -> dict:
        scans, fits, csv = {}, {}, {}
        for name in self.names:
            parts = [results.get(("row", name, eps)) for eps in self.grids[name]]
            if any(p is None for p in parts):
                continue
            scan = dataclasses.replace(parts[0], rows=tuple(p.rows[0] for p in parts))
            scans[name] = scan
            fits[name] = analysis.fit_order(scan)
            csv[name] = analysis.to_csv(scan)
        return {
            "table": {key[1:]: v for key, v in results.items() if key[0] == "table"},
            "series": {key[1]: v for key, v in results.items() if key[0] == "series"},
            "scans": scans,
            "fits": fits,
            "csv": csv,
        }

    def check(self, outputs: list) -> list:
        first = outputs[0]
        bad = []
        cols = analysis.TABLE_SEQUENCES
        for eps, row in TABLE_EXPECTED.items():
            for name, want in zip(cols, row):
                got = first["table"].get((eps, name))
                if got is None or fabs(got - mpf(want)) / mpf(want) >= TABLE_TOLERANCE:
                    bad.append(f"table {eps} {name}: {got} vs paper {want}")
        for name, want in SLOPES_EXPECTED.items():
            fit = first["fits"].get(name)
            if fit is None or abs(fit.slope - want) > SLOPE_TOLERANCE:
                bad.append(f"slope {name}: {fit and fit.slope} vs {want}")
        for i, (_, spec, comp, k, root3) in enumerate(COEFFICIENTS):
            want = k * (sqrt(3) if root3 else 1)
            got = first["series"].get(i)
            if got is None or fabs(got - want) / fabs(want) >= COEFFICIENT_TOLERANCE:
                bad.append(f"coefficient {spec} {comp}: {got} vs {want}")
        for name, scan in first["scans"].items():
            bad += [f"row {name} {r.eps}: {r.error}" for r in scan.rows if not r.ok]
            bad += _csv_mismatches(name, scan, first["csv"][name])
        return bad

    def agreement(self, outputs: list) -> float:
        """Table entries, top scan rows and coefficients against 80 digits.
        Coefficients reuse the 60-digit step so only rounding differs."""
        output = outputs[0]
        step = mpf(10) ** (-mpf(self.digits) / 4)
        low = [output["table"][key] for key in sorted(output["table"])]
        low += [output["scans"][name].rows[0].infidelity for name in self.names]
        low += [output["series"][i] for i in range(len(COEFFICIENTS))]
        with precision.working_digits(HIGH_DIGITS):
            table = analysis.infidelity_table()
            high = [table[key] for key in sorted(output["table"])]
            for name in self.names:
                seq = sequences.build_builtin(name)
                actual = sequences.evaluate(seq, self.model, self.grids[name][0])
                high.append(su2.infidelity(seq.ideal_unitary(), actual))
            seq = sequences.build_builtin("pi3:X", sequences.parse_target("z-pi"))
            for family, spec, comp, _, _ in COEFFICIENTS:
                fam = analysis.FAMILIES[family]()
                high.append(analysis.series_coefficient(seq, fam, spec, comp, step))
        return min(agreeing_digits(a, b) for a, b in zip(low, high))

    def bare_product_case(self):
        return self.seqs["pi3Y∘b4sym"], self.model, mpf("1e-2")

    def fit_points(self, output: dict) -> tuple:
        used = sum(f.n_points for f in output["fits"].values())
        offered = sum(len(s.rows) for s in output["scans"].values())
        return used, offered


def _csv_mismatches(name: str, scan, text: str) -> list:
    """The CSV has one line per row and each field reads back to its value
    within the mantissa length the CSV promises."""
    lines = text.splitlines()
    if lines[0] != "epsilon,cx,cy,cz,infidelity" or len(lines) != len(scan.rows) + 1:
        return [f"csv {name}: bad header or row count"]
    tol = mpf(10) ** (1 - scan.digits)
    for line, row in zip(lines[1:], scan.rows):
        for field, value in zip(line.split(","), (row.eps, row.cx, row.cy, row.cz, row.infidelity)):
            if value == 0:
                if mpf(field) != 0:
                    return [f"csv {name}: {field} should be 0"]
            elif fabs(mpf(field) - value) > tol * fabs(value):
                return [f"csv {name}: {field} does not read back as {value}"]
    return []


# ---------------------------------------------------------------------------
# deep_chain: depth-5 concat: chains under two models


DEPTH = 5
SLOPE_SLACK = 0.1  # fitted slope may fall this far below the calculus order
COMPONENTS = ("cx", "cy", "cz")


class DeepChain:
    """Scans and component fits of two drawn depth-5 chains (727 pulses),
    each under linear over-rotation and under a per-channel model with a
    covariant vector error on the targets and axis-dependent pi/3 errors.

    The grids sit at eps 1e-8..1e-6.  Under the vector model a drawn
    chain's leading coefficient can be small enough for the next order to
    cancel it near eps 1e-4, which pulled slopes fitted over 1e-6..1e-4 up
    to 0.42 below the asymptotic order; over 1e-8..1e-6 none of 337 fits
    fell more than 0.002 below.
    Linear rows outnumber vector rows so the op-time median and p90 each
    fall inside one model's cluster.
    """

    name = "deep_chain"
    digits = 60
    chains = job_kinds = 2  # job k scans chain k % 2

    def __init__(self, seed: int, workdir: str):
        precision.set_digits(self.digits)
        rng = random.Random(seed)
        self.axes = ["".join(rng.choice("XYZ") for _ in range(DEPTH)) for _ in range(self.chains)]
        linear_eps = mpf(f"{rng.uniform(0.5, 1.5):.4f}")
        vec = tuple(mpf(f"{rng.choice((-1, 1)) * rng.uniform(0.3, 1.0):.4f}") for _ in range(3))
        delta = mpf(f"{rng.uniform(0.3, 1.0):.4f}")
        delta_hat = mpf(f"{rng.uniform(0.3, 1.0):.4f}")
        self.models = {
            "linear": error_models.LinearOverRotation(linear_eps),
            "vector": error_models.PerChannel(
                {
                    "target": error_models.CovariantVector.constant(vec),
                    "pi3": error_models.AxisDependentPi3(delta, delta_hat),
                }
            ),
        }
        self.grids = {
            "linear": analysis.default_scales("1e-8", "1e-6", 4),
            "vector": analysis.default_scales("1e-8", "1e-6", 2),
        }
        # x pi target: over-rotation starts along x; a generic vector error
        # is first order in all three components
        inf = orders.INFINITY
        regimes = {"linear": ("covariant", (1, inf, inf)), "vector": ("axisdep", (1, 1, 1))}
        self.predicted = {}
        self.greedy = {}
        for axes in self.axes:
            for model, (regime, start) in regimes.items():
                t = orders.OrderTriple(*start)
                for axis in axes:
                    t = orders.apply_regime(t, axis, regime)
                self.predicted[(axes, model)] = t
        for model, (regime, start) in regimes.items():
            self.greedy[model] = orders.plan(orders.OrderTriple(*start), regime=regime, depth=DEPTH).final
        self.seqs = {axes: sequences.build_builtin(f"concat:{axes}") for axes in self.axes}

    def inputs(self) -> dict:
        return {
            "chains": [f"concat:{axes}" for axes in self.axes],
            "models": {name: error_models.describe(m) for name, m in self.models.items()},
            "grid_points": {name: len(grid) for name, grid in self.grids.items()},
            "predicted_orders": {f"{a} {m}": str(t) for (a, m), t in self.predicted.items()},
            "greedy_depth5_orders": {m: str(t) for m, t in self.greedy.items()},
        }

    def flat_pulse_counts(self) -> dict:
        return {f"concat:{axes}": len(seq.pulses) for axes, seq in self.seqs.items()}

    def _chain(self, k: int) -> str:
        return self.axes[k % self.chains]

    def ops(self, k: int) -> list:
        axes = self._chain(k)
        seq = self.seqs[axes]
        out = []
        for model_name, grid in self.grids.items():
            model = self.models[model_name]
            for eps in grid:
                out.append(Op((axes, model_name, eps), _scan_row(seq, model, eps), len(seq.pulses)))
        return out

    def finish(self, k: int, results: dict) -> dict:
        axes = self._chain(k)
        scans, fits = {}, {}
        for model_name, grid in self.grids.items():
            parts = [results.get((axes, model_name, eps)) for eps in grid]
            if any(p is None for p in parts):
                continue
            scan = dataclasses.replace(parts[0], rows=tuple(p.rows[0] for p in parts))
            scans[model_name] = scan
            for col in COMPONENTS:
                try:
                    fits[(model_name, col)] = analysis.fit_order(scan, col)
                except analysis.FitError:
                    fits[(model_name, col)] = None  # every point below the floor
        return {"axes": axes, "scans": scans, "fits": fits}

    def check(self, outputs: list) -> list:
        bad = []
        for out in outputs:
            axes = out["axes"]
            for model_name, scan in out["scans"].items():
                bad += [f"{axes} {model_name} row {r.eps}: {r.error}" for r in scan.rows if not r.ok]
            for model_name in self.grids:
                pred = self.predicted[(axes, model_name)]
                for col, order in zip(COMPONENTS, pred):
                    if (model_name, col) not in out["fits"]:
                        bad.append(f"{axes} {model_name} {col}: no scan")
                        continue
                    fit = out["fits"][(model_name, col)]
                    if fit is not None and fit.slope < order - SLOPE_SLACK:
                        bad.append(f"{axes} {model_name} {col}: slope {fit.slope:.3f} < order {order}")
        return bad

    def agreement(self, outputs: list) -> float:
        """The evaluated unitary at the largest-eps row of every scanned chain
        and model, against 80 digits.  Normwise, because the row's own
        infidelity shrinks with the chain's drawn order, and so would its
        significant digits, which would make the metric follow the seed."""
        digits = []
        for axes in (o["axes"] for o in outputs):
            for model_name, grid in self.grids.items():
                model, eps = self.models[model_name], grid[0]
                low = sequences.evaluate(self.seqs[axes], model, eps)
                with precision.working_digits(HIGH_DIGITS):
                    high = sequences.evaluate(sequences.build_builtin(f"concat:{axes}"), model, eps)
                digits.append(agreeing_digits_normwise(low, high))
        return min(digits)

    def bare_product_case(self):
        return self.seqs[self.axes[0]], self.models["linear"], self.grids["linear"][0]

    def fit_points(self, output: dict) -> tuple:
        used = sum(f.n_points for f in output["fits"].values() if f is not None)
        offered = sum(len(output["scans"][m].rows) for m, _ in output["fits"])
        return used, offered


# ---------------------------------------------------------------------------
# text_io: the documented file flow through the CLI


TEXT_DEPTH = 6
TEXT_MODEL = "model=linear eps=0.05"
BUILD_DIGITS = 16
SIMULATE_DIGITS = 60
SIMULATE_FIELDS = ("cx", "cy", "cz", "infidelity")


class TextIO:
    """``build`` of a depth-6 chain (2185 pulses) to a file at 16 digits,
    then ``simulate --file`` on it at 60 digits."""

    name = "text_io"
    digits = SIMULATE_DIGITS
    job_kinds = 1

    def __init__(self, seed: int, workdir: str):
        precision.set_digits(BUILD_DIGITS)
        rng = random.Random(seed)
        self.axes = "".join(rng.choice("XYZ") for _ in range(TEXT_DEPTH))
        self.target = f"{rng.choice('xyz')}-{rng.choice(('pi', 'pi/2'))}"
        self.spec = f"concat:{self.axes}"
        self.seq_path = os.path.join(workdir, "sequence.txt")
        self.out_path = os.path.join(workdir, "simulate.txt")

    def inputs(self) -> dict:
        return {
            "sequence": self.spec,
            "target": self.target,
            "model": TEXT_MODEL,
            "build_digits": BUILD_DIGITS,
            "simulate_digits": SIMULATE_DIGITS,
        }

    def flat_pulse_counts(self) -> dict:
        return {f"{self.spec} ({self.target})": orders.pulse_count(TEXT_DEPTH)}

    def ops(self, k: int) -> list:
        return [Op(("roundtrip",), self._roundtrip, orders.pulse_count(TEXT_DEPTH))]

    def _roundtrip(self) -> str:
        build = ["--digits", str(BUILD_DIGITS), "build", "--seq", self.spec, "--target", self.target,
                 "--out", self.seq_path]
        simulate = ["--digits", str(SIMULATE_DIGITS), "simulate", "--file", self.seq_path,
                    "--model", TEXT_MODEL, "--eps", "1", "--out", self.out_path]
        for argv in (build, simulate):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"compulse {argv[2]} exited {code}")
        with open(self.out_path, encoding="utf-8") as fh:
            return fh.read()

    def finish(self, k: int, results: dict) -> dict:
        with open(self.seq_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return {"simulate": results.get(("roundtrip",)), "file_sha256": digest}

    def _read_sequence(self, digits: int):
        with open(self.seq_path, encoding="utf-8") as fh:
            text = fh.read()
        with precision.working_digits(digits):
            return sequences.parse(text)

    def _direct(self, digits: int):
        """(cx, cy, cz, infidelity) of the file evaluated directly."""
        seq = self._read_sequence(digits)
        with precision.working_digits(digits):
            ideal = seq.ideal_unitary()
            actual = sequences.evaluate(seq, error_models.parse_model(TEXT_MODEL), mpf(1))
            return (*su2.trace_components(ideal, actual), su2.infidelity(ideal, actual))

    def check(self, outputs: list) -> list:
        bad = []
        with precision.working_digits(BUILD_DIGITS):
            built = sequences.build_builtin(self.spec, sequences.parse_target(self.target))
        parsed = self._read_sequence(BUILD_DIGITS)
        if parsed.target != built.target or parsed.pulses != built.pulses:
            bad.append(f"{self.spec} {self.target}: parsed pulses differ from the built ones")
        sig = max(8, min(SIMULATE_DIGITS, 17))
        with precision.working_digits(SIMULATE_DIGITS):
            want = {f: analysis.format_sci(v, sig) for f, v in zip(SIMULATE_FIELDS, self._direct(SIMULATE_DIGITS))}
        got = {}
        for line in (outputs[0]["simulate"] or "").splitlines():
            field, _, value = line.partition(" ")
            got[field] = value.strip()
        for field in SIMULATE_FIELDS:
            if got.get(field) != want[field]:
                bad.append(f"simulate {field}: {got.get(field)} vs direct evaluate {want[field]}")
        return bad

    def agreement(self, outputs: list) -> float:
        low = self._direct(SIMULATE_DIGITS)[-1]
        high = self._direct(HIGH_DIGITS)[-1]
        return agreeing_digits(low, high)

    def bare_product_case(self):
        seq = self._read_sequence(SIMULATE_DIGITS)
        return seq, error_models.parse_model(TEXT_MODEL), mpf(1)

    def fit_points(self, output: dict) -> tuple:
        return 0, 0


WORKLOADS = {cls.name: cls for cls in (Reference, DeepChain, TextIO)}
