"""Reference-speed timing for a shared, noisy machine.

On a small virtual machine the speed of one core drifts with the load of
other tenants: the same 727-pulse evaluation was measured at 92 ms and at
175 ms within two minutes, with no steal time reported.  A fixed
calibration kernel, timed next to the measured work, slows down with it:
over the same two minutes the ratio of the two stayed within 3%.

Every time the benchmark reports is therefore in reference-speed seconds:
measured seconds times ``CALIBRATION_S`` over the kernel time measured
next to them.  The kernel uses mpmath only, never compulse, so a change to
compulse cannot change it.  Raw seconds are kept in the run record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from mpmath import cos, mp, mpf, sin, sqrt

CALIBRATION_S = 0.010  # kernel time that defines reference speed
KERNEL_STEPS = 80  # about 11 ms on a 2.1 GHz Xeon KVM guest, Python 3.11


def calibration_kernel():
    """Rotation products and trigonometry at 60 digits, as in an evaluation."""
    with mp.workdps(60):
        w, x, y, z = mpf(1), mpf(0), mpf(0), mpf(0)
        for k in range(1, KERNEL_STEPS + 1):
            a = mpf(k) / 7
            c, s = cos(a), sin(a)
            n = sqrt(mpf(k * k + 2))
            ux, uy, uz = s / n, s * k / n, s / n
            w, x, y, z = (
                c * w - ux * x - uy * y - uz * z,
                c * x + w * ux - (uy * z - uz * y),
                c * y + w * uy - (uz * x - ux * z),
                c * z + w * uz - (ux * y - uy * x),
            )
        return w


def kernel_seconds() -> float:
    t = perf_counter()
    calibration_kernel()
    return perf_counter() - t


class ReferenceClock:
    """Turns measured seconds into reference-speed seconds.

    Measured work is split into segments; the kernel runs between
    segments, and a segment is scaled by the mean of the kernel times just
    before and just after it.
    """

    def __init__(self):
        calibration_kernel()  # first call fills mpmath's caches
        self.last = kernel_seconds()
        self.kernel_times = [self.last]

    def factor(self) -> float:
        """Scale for the work done since the previous call."""
        now = kernel_seconds()
        self.kernel_times.append(now)
        f = CALIBRATION_S / ((self.last + now) / 2)
        self.last = now
        return f

    def measure(self, fn, repeats: int = 3) -> float:
        """Median reference-speed seconds of ``fn()``."""
        self.factor()
        times = []
        for _ in range(repeats):
            t = perf_counter()
            fn()
            times.append((perf_counter() - t) * self.factor())
        return statistics.median(times)

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_times)
