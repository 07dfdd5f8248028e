"""Host-speed calibration for the benchmark's timings.

On a shared 2-CPU virtual machine the speed of the CPU drifts by 15-40%,
in phases that last from seconds to minutes. The drift comes from the host, not from the process:
CPU time equals wall time, and steal time stays near zero. One fixed
workload then reads 4.0 s in one run and 6.1 s in the next. A pure-Python
kernel that shares no code with ardom slows down with it. The benchmark
therefore samples the kernel between ops and reports each op's wall time
scaled by ``REF_S / kernel time`` just around it: seconds on a host where
the kernel takes ``REF_S``. The speed changes within seconds, so only the
samples next to the op count. The raw wall times go into the report line.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REF_S = 1.0e-3  # kernel time that a scaled second refers to
WIDTH = 2  # samples after each op; an op is scaled by those on both sides


def _kernel():
    s = 0
    for i in range(12000):
        s += i * i % 7
    return s


def sample() -> float:
    """Kernel wall time now: the fastest of three, to skip interrupts."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def samples() -> list:
    return [sample() for _ in range(WIDTH)]


def scale(refs, mark) -> float:
    """Factor from raw to scaled seconds for an op between refs[mark - 1] and refs[mark]."""
    return REF_S / statistics.median(refs[max(0, mark - WIDTH) : mark + WIDTH])
