"""Host-speed calibration for guest MIPS on a shared host.

A shared host's speed drifts by 25% and more within minutes, for every
CPU-bound process alike, so raw seconds of two runs minutes apart are
not comparable.  The benchmark times guest code in short slices and,
after each slice, runs :func:`calibration_seconds`: a fixed pure-Python
loop of the same kind of work (attribute, list and dict access, integer
arithmetic, method calls) that touches no repository code.  A slice's
*reference seconds* are its seconds scaled by :data:`REFERENCE_S` over
the loop's time right after it: the time the slice would have taken at
the host speed the loop has at :data:`REFERENCE_S`.  A change to the
program moves reference seconds fully; a change in host speed mostly
cancels out.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Iterations of one calibration, 3-8 ms.  Shorter loops track the
#: host's speed worse: in exploratory runs a third of this length spread
#: guest MIPS more.
ITERATIONS = 12_000
#: A fixed constant: about the loop's time on a quiet 2-vCPU Intel Xeon
#: container with Python 3.11, where it ranged from 3.2 ms (quiet) to
#: 8 ms (busy neighbours) while the benchmark was written.
REFERENCE_S = 0.0036


class _Probe:
    __slots__ = ("regs", "count")

    def __init__(self):
        self.regs = [0] * 16
        self.count = 0

    def step(self, index: int) -> int:
        regs = self.regs
        regs[index & 15] = (regs[(index + 1) & 15] +
                            index * 2654435761) & 0xFFFFFFFF
        self.count += 1
        return regs[index & 15]


def calibration_seconds() -> float:
    """Seconds one run of the fixed calibration loop takes now (with the
    garbage collector paused, so it does not pay for the program's
    garbage)."""
    probe, table = _Probe(), {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for index in range(ITERATIONS):
            value = probe.step(index)
            if isinstance(value, int):
                table[value & 127] = index
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_seconds(seconds: float) -> float:
    """*seconds* just measured, scaled to the reference host speed."""
    return seconds * REFERENCE_S / calibration_seconds()
