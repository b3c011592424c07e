"""Machine-speed meter: times normalized against a fixed reference kernel.

On a shared host the speed of one CPU changes by a factor of up to two from
one second to the next, and by as much again over tens of minutes.  Raw wall
times then differ between runs of the same code far more than the code
changes they should detect.  The meter samples the host's speed while the
benchmark runs: every SAMPLE_CPU_S of process CPU time, a SIGPROF handler
runs a fixed pure-Python kernel (stdlib Fraction arithmetic, the same kind of
work ybx does) and records how long it took.

`seconds(a, b)` turns a perf_counter interval into reference seconds.  It
subtracts the kernel's own time, then scales each stretch of the interval by
NOMINAL_S / (kernel time sampled there).  A reference second is a second of
a host on which the kernel takes NOMINAL_S, roughly a shared 2-CPU x86_64
Xeon VM in its fast phases.  On a host with a steady speed the result is the
wall time times a constant.

Measured on that VM: repeated `solve` calls of partition (4, 4) over
60 s had an interquartile range of 40% of the median in raw seconds and
3.5% in reference seconds.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

SAMPLE_CPU_S = 0.01
NOMINAL_S = 150e-6

_OPERANDS = [Fraction(i * 7919 % 1009 + 1, i % 97 + 2) for i in range(1, 41)]


def kernel() -> Fraction:
    """The reference work: 39 Fraction products and sums (about 0.15 ms)."""
    acc = Fraction(0)
    for x, y in zip(_OPERANDS, _OPERANDS[1:]):
        acc += x * y
    return acc


class SpeedMeter:
    """Samples the kernel on SIGPROF while started; use as a context manager."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.costs: list[float] = []  # kernel seconds of each sample
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def __enter__(self):
        kernel()  # warm the operands and the code object before the first sample
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds spent between two perf_counter readings."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        costs = self.costs[lo:hi]
        busy = (end - start) - sum(costs)
        if not costs:
            # shorter than one sampling period: use the samples on either side
            costs = self.costs[max(lo - 1, 0):lo + 1] or [NOMINAL_S]
        return busy * NOMINAL_S * sum(1.0 / c for c in costs) / len(costs)

    def summary(self) -> dict:
        """Sample count and the spread of the sampled speed, for the detail line."""
        if not self.costs:
            return {"samples": 0}
        ordered = sorted(self.costs)
        return {
            "samples": len(ordered),
            "kernel_s.p10": ordered[len(ordered) // 10],
            "kernel_s.median": ordered[len(ordered) // 2],
            "kernel_s.p90": ordered[(9 * len(ordered)) // 10],
        }
