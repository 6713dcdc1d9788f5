#!/usr/bin/env python3
"""compulse benchmark: one closed-loop client in one process and thread.

    python3 benchmarks/run.py --workload reference --seed 1 --seconds 30 --trace 0

Runs from the repository root and imports the library from ``src/`` (the
package need not be installed).  Workloads are defined in
``workloads.py``: ``reference``, ``deep_chain`` and ``text_io``.

After set-up, jobs run back to back until ``--seconds`` have passed (at
least one job).  Every op and every job is timed; outputs are checked
after the timed region.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics.  With ``--trace 1`` the same loop runs untraced
first; then a traced set-up and ``TRACED_JOBS`` traced jobs give the
per-layer metrics, and the spans are written to ``.bench_out/``.  Times
are in reference-speed seconds (see ``refclock.py``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the full
record (``record {...}``) with provenance, sample counts and failures; it
is also written to ``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
# Later performance claims must also hold on this seed, which was not used
# while tuning the benchmark.
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh interpreters
TRACED_JOBS = 2  # fixed, so traced counts repeat exactly for a seed
TIMING_REPEATS = 3
SEGMENT_S = 0.25  # measured seconds between two calibration kernels

# ROADMAP item 1's hand-timed baseline, reported next to the measured values.
ROADMAP_TABLE_S = 0.17
ROADMAP_MULTIPLY_SHARE = 0.20

WORKLOAD_NAMES = ("reference", "deep_chain", "text_io")
# the metrics BENCHMARK.json bounds; fail_rate is only recorded, being 0
END_TO_END = ("wall_s", "setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90",
              "pulse_evals_per_s", "peak_rss_mb", "digits_agree_min")


class Job(NamedTuple):
    wall: float  # reference-speed seconds
    raw_wall: float  # measured seconds
    op_times: list  # reference-speed seconds
    flat_pulses: int
    errors: list


def parse_args(argv):
    p = argparse.ArgumentParser(description="compulse benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload: str, seed: int, workdir: str):
    """Import, set the precision, draw the inputs and build: the set-up a
    user pays before the first job.  Returns (workload, reference seconds)."""
    t0 = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    raw = perf_counter() - t0
    import refclock

    kernel = statistics.median(refclock.kernel_seconds() for _ in range(TIMING_REPEATS))
    return wl, raw * refclock.CALIBRATION_S / kernel


def probe_setup(args) -> float:
    """Set-up time in a fresh interpreter, where the import is not cached."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_job(wl, k: int, clock, tracer=None) -> tuple:
    """One job, as (Job, output); ops are timed one by one and scaled to
    reference speed per segment of about ``SEGMENT_S``."""
    ops = wl.ops(k)
    results, errors, op_times = {}, [], []
    segment, segment_s = [], 0.0
    wall = raw_wall = 0.0
    flat = 0

    def close_segment():
        nonlocal segment_s, wall, raw_wall
        f = clock.factor()
        op_times.extend(t * f for t in segment)
        wall += segment_s * f
        raw_wall += segment_s
        segment.clear()
        segment_s = 0.0

    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k * len(ops) + i
        t = perf_counter()
        try:
            results[op.key] = op.fn()
        except Exception:  # an op that raises counts as failed; the run goes on
            errors.append(f"op {op.key}: {traceback.format_exc(limit=3)}")
        dt = perf_counter() - t
        segment.append(dt)
        segment_s += dt
        flat += op.flat_pulses
        if segment_s >= SEGMENT_S and i + 1 < len(ops):
            close_segment()
    t = perf_counter()
    try:
        output = wl.finish(k, results)
    except Exception:
        output = None
        errors.append(f"job {k} finish: {traceback.format_exc(limit=3)}")
    segment_s += perf_counter() - t  # finish belongs to the job, not to an op
    close_segment()
    return Job(wall, raw_wall, op_times, flat, errors), output


class Outputs:
    """The first output of each job kind, and a digest of every output, so
    that memory does not grow with the number of jobs run."""

    def __init__(self, kinds: int):
        self.kinds = kinds
        self.firsts = {}
        self.digests = []  # (job number in the run, kind, digest)

    def add(self, k: int, output) -> None:
        kind = k % self.kinds
        self.firsts.setdefault(kind, output)
        self.digests.append((len(self.digests), kind, output_digest(output)))


def output_digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


def run_jobs(wl, seconds: float, clock, outputs: Outputs, max_jobs=None, tracer=None) -> list:
    """Jobs back to back until ``seconds`` have passed, or ``max_jobs``."""
    jobs = []
    start = perf_counter()
    while True:
        job, output = run_job(wl, len(jobs), clock, tracer)
        outputs.add(len(jobs), output)
        jobs.append(job)
        if max_jobs is not None:
            if len(jobs) >= max_jobs:
                return jobs
        elif perf_counter() - start >= seconds:
            return jobs


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def check_outputs(wl, kept: Outputs) -> tuple:
    """(failures, digits_agree_min), computed outside the timed region.
    Every output must equal the first output of its kind."""
    firsts = {kind: output_digest(o) for kind, o in kept.firsts.items()}
    bad = [f"job {n} output differs from the first job of its kind"
           for n, kind, digest in kept.digests if digest != firsts[kind]]
    outputs = [o for o in kept.firsts.values() if o is not None]
    if len(outputs) < len(kept.firsts):
        return bad + ["a job produced no output"], 0.0
    try:
        return bad + wl.check(outputs), wl.agreement(outputs)
    except Exception:
        return bad + [f"checks raised: {traceback.format_exc(limit=3)}"], 0.0


def end_to_end(jobs: list, setup_samples: list, peak_rss_mb: float, digits: float,
               failed: int, attempted: int) -> tuple:
    """(metrics, sample counts) of the untraced jobs."""
    walls = [j.wall for j in jobs]
    op_times = [t for j in jobs for t in j.op_times]
    busy = sum(walls)
    op_p90 = p90(op_times)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(op_times) / busy, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(op_times), "ms"),
        "op_ms_p90": (1e3 * op_p90, "ms"),
        "pulse_evals_per_s": (sum(j.flat_pulses for j in jobs) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "digits_agree_min": (digits, "digits"),
        "fail_rate": (failed / attempted, "ratio"),
    }, {
        "jobs": len(walls),
        "ops": len(op_times),
        "wall_s_p90": p90(walls),
        "op_samples_beyond_p90": sum(t > op_p90 for t in op_times),
        "setup_s_samples": setup_samples,
    }


def per_layer(tr, wl, clock, kept: Outputs, untraced: list, traced: list) -> dict:
    from compulse import analysis, precision, sequences, su2

    s = tr.summary()
    # spans are measured seconds; scale them like the traced jobs
    to_reference = sum(j.wall for j in traced) / sum(j.raw_wall for j in traced)

    def get(name, key):
        value = s.get(name, {}).get(key, 0)
        return value * to_reference if key.endswith("_s") else value

    flat = tr.flat_pulses_evaluated()
    mult_calls, mult_s = tr.under_evaluate("su2.multiply")
    realize_calls, _ = tr.under_evaluate("error_models.realize")
    evaluate_s = get("sequences.evaluate", "incl_s")
    used = offered = 0
    for out in kept.firsts.values():
        if out is not None:
            u, o = wl.fit_points(out)
            used, offered = used + u, offered + o

    # ROADMAP item 1's measurements, untraced: the whole 60-digit table, and
    # bare products of pre-realized pulses against a full evaluate.
    precision.set_digits(60)
    table_s = clock.measure(analysis.infidelity_table)
    precision.set_digits(wl.digits)
    seq, model, eps = wl.bare_product_case()
    realized = [model.realize(p, eps) for p in seq.pulses]

    def products():
        out = su2.identity()
        for u in realized:
            out = su2.multiply(u, out)

    bare_share = clock.measure(products) / clock.measure(lambda: sequences.evaluate(seq, model, eps))

    untraced_wall = statistics.median(j.wall for j in untraced)
    return {
        "su2.multiply.calls": (get("su2.multiply", "calls"), "count"),
        "su2.multiply.self_s": (get("su2.multiply", "self_s"), "s"),
        "su2.multiply_per_flat_pulse": (mult_calls / flat, "count/pulse"),
        "su2.multiply.share_of_evaluate": (mult_s * to_reference / evaluate_s, "ratio"),
        "error_models.realize.calls": (get("error_models.realize", "calls"), "count"),
        "error_models.realize.self_s": (get("error_models.realize", "self_s"), "s"),
        "error_models.realize_per_flat_pulse": (realize_calls / flat, "count/pulse"),
        "sequences.flat_pulses_evaluated": (flat, "count"),
        "sequences.evaluate.calls": (get("sequences.evaluate", "calls"), "count"),
        "sequences.evaluate.self_s": (get("sequences.evaluate", "self_s"), "s"),
        "sequences.pulse_derive.calls": (get("sequences.pulse_derive", "calls"), "count"),
        "sequences.pulse_derive.self_s": (get("sequences.pulse_derive", "self_s"), "s"),
        "sequences.pulses_constructed": (get("sequences.pulse_construct", "calls"), "count"),
        "sequences.build_s": (get("sequences.build", "incl_s"), "s"),
        "sequences.parse_s": (get("sequences.parse", "incl_s"), "s"),
        "sequences.serialize_s": (get("sequences.serialize", "incl_s"), "s"),
        "su2.tighten_axis.calls": (get("su2.tighten_axis", "calls"), "count"),
        "su2.from_generator.self_s": (get("su2.from_generator", "self_s"), "s"),
        "su2.exp_pauli.calls": (get("su2.exp_pauli", "calls"), "count"),
        "su2.reduce.self_s": (get("su2.reduce", "self_s"), "s"),
        "precision.unit_tolerance.calls": (get("precision.unit_tolerance", "calls"), "count"),
        "orders.plan.calls": (get("orders.plan", "calls"), "count"),
        "orders.plan.self_s": (get("orders.plan", "self_s"), "s"),
        "analysis.format.self_s": (get("analysis.format", "self_s"), "s"),
        "analysis.fit.self_s": (get("analysis.fit", "self_s"), "s"),
        "analysis.fit.points_used_ratio": (used / offered if offered else 0.0, "ratio"),
        "analysis.series_s": (get("analysis.series", "incl_s"), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "trace_overhead_ratio": (statistics.median(j.wall for j in traced) / untraced_wall, "ratio"),
        "roadmap.table_s": (table_s, "s"),
        "roadmap.multiply_share_bare": (bare_share, "ratio"),
    }


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "compulse").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: source_sha256 identifies the code
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, wl) -> dict:
    import mpmath

    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "digits": wl.digits,
        "inputs": wl.inputs(),
        "flat_pulses": wl.flat_pulse_counts(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run(args, workdir: str) -> int:
    load_before = os.getloadavg()
    wl, setup_s = set_up(args.workload, args.seed, workdir)
    import refclock
    import tracer as tracing

    clock = refclock.ReferenceClock()
    kept = Outputs(wl.job_kinds)
    untraced = run_jobs(wl, args.seconds, clock, kept)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = []
    if args.trace:
        tr = tracing.Tracer()
        with tr.installed():
            traced_wl, _ = set_up(args.workload, args.seed, workdir)
            traced = run_jobs(traced_wl, 0, clock, kept, max_jobs=TRACED_JOBS, tracer=tr)

    jobs = untraced + traced
    failures, digits = check_outputs(wl, kept)
    errors = [e for j in jobs for e in j.errors] + failures
    attempted = sum(len(j.op_times) for j in jobs)
    failed = min(attempted, len(errors))

    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    metrics, samples = end_to_end(untraced, setup_samples, peak_rss_mb, digits, failed, attempted)
    shown = {k: metrics[k] for k in END_TO_END}
    if args.trace:
        shown = per_layer(tr, wl, clock, kept, untraced, traced)
        metrics.update(shown)
        tr.write(OUT / f"trace_{args.workload}_seed{args.seed}.csv")

    record = provenance(args, wl)
    record.update(
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        samples=samples,
        raw_seconds={
            "wall_s": statistics.median(j.raw_wall for j in untraced),
            "calibration_kernel_s": clock.median_kernel_s(),
            "reference_kernel_s": refclock.CALIBRATION_S,
        },
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        roadmap_baseline={"roadmap.table_s": ROADMAP_TABLE_S, "roadmap.multiply_share_bare": ROADMAP_MULTIPLY_SHARE},
        failures=errors[:20],
    )
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<38} {value:.6g} {unit}")
    for e in errors[:20]:
        print(f"FAILED: {e.strip()}")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "compulse" / "__init__.py").is_file():
        print(f"benchmark: no compulse sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            _, secs = set_up(args.workload, args.seed, workdir)
            print(repr(secs))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
