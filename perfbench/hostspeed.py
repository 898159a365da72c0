"""Host speed: a fixed pure-Python kernel, timed on the thread doing the work.

On a shared host a virtual CPU's speed moves by up to 2x within seconds
and drifts over minutes, as other tenants come and go.  The slowdown
shows in CPU time as well as in wall time, so neither a longer run nor
CPU-time figures remove it.  A short fixed kernel, timed with
``time.thread_time`` by the measuring thread between its ops, slows down
with the work (on a 2-vCPU cloud VM, correlation 0.98 per half-second
window), so every time the benchmark reports is rescaled to a reference
host::

    reported = measured * REFERENCE_KERNEL_S / (kernel CPU time nearby)

The kernel works on a 256-entry dict, which stays in the first-level
cache: its speed does not depend on how much memory the program under
test touches.  (A pointer chase through a larger ring tracked the
program's full garbage collections better, but ran 3x slower whenever
the program had pushed the ring out of the caches, so a program that
touches more memory would have been rescaled as if the host were slow.)

The kernel uses nothing from the package under test, so a change to the
program moves the reported figures and a change in host speed does not.
The raw figures are printed next to the rescaled ones.  A sampler on
another CPU does not help: per-second speeds of two virtual CPUs of one
host were uncorrelated.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

perf_counter = time.perf_counter

#: Iterations of the kernel: about 0.4 ms of CPU on a 2.x GHz core.
KERNEL_LOOPS = 2500
#: Kernel CPU time of the reference host the reported figures refer to.
REFERENCE_KERNEL_S = 0.0004
#: Period between two samples.
SAMPLE_EVERY_S = 0.02
#: Width of the windows the rescaling is done in.
WINDOW_S = 0.5
#: Fewest samples a window's factor is taken from (widened until met).
MIN_SAMPLES = 5


def kernel() -> float:
    """CPU seconds one run of the fixed kernel took on this thread."""
    begin = time.thread_time()
    table = {}
    for i in range(KERNEL_LOOPS):
        key = i & 255
        table[key] = table.get(key, 0) ^ i
    return time.thread_time() - begin


class Inline:
    """Samples taken by the measuring thread between its ops."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._due = 0.0

    def sample(self) -> None:
        self.samples.append((perf_counter(), kernel()))
        self._due = perf_counter() + SAMPLE_EVERY_S

    def poll(self, now: float) -> None:
        """Sample if one is due at ``now``."""
        if now >= self._due:
            self.sample()


class Scale:
    """Factors that rescale measured times to the reference host."""

    def __init__(self, samples: List[Tuple[float, float]]) -> None:
        if len(samples) < MIN_SAMPLES:
            raise ValueError(f"{len(samples)} host-speed samples, need {MIN_SAMPLES}")
        self.samples = sorted(samples)
        self.times = [t for t, _ in self.samples]

    def factor(self, begin: float, end: float) -> float:
        """``REFERENCE_KERNEL_S`` over the median kernel time sampled in
        ``[begin, end]``, the interval widened until it holds enough."""
        lo = bisect.bisect_left(self.times, begin)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return REFERENCE_KERNEL_S / statistics.median(k for _, k in self.samples[lo:hi])

    def windows(self, begin: float, end: float):
        """``(start, stop, factor)`` of each ``WINDOW_S`` window of
        ``[begin, end]``."""
        out = []
        start = begin
        while start < end:
            stop = min(end, start + WINDOW_S)
            out.append((start, stop, self.factor(start, stop)))
            start = stop
        return out
