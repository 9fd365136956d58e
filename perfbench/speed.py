"""Timings at a reference speed, on a host whose speed wanders.

On the shared 2-core machine the benchmark was written on, the time of a
fixed pure-Python loop wanders by 10-20% over seconds and by up to 35%
over a minute, and the process's CPU time tracks its wall time: the core
itself runs slower, the process does not wait.  Repeating work inside a
35 s run cannot remove a drift that spans the run.  So the measured
rounds read a gauge between operations: `kernel`, a fixed Python loop of
small-integer arithmetic and dict stores, timed `REPEATS` times.  Each
operation's timing is scaled by `REFERENCE_KERNEL_S` over the median of
the readings taken from one operation length before it to one after it
(`Gauge.around`).  The kernel does not call
the program, so a program change moves the operations' times but not
the kernel's, and it shows in full.

Of the kernels tried (this loop, a Fraction sum, big-integer products, a
numpy integer matmul, Fraction Horner evaluation, numpy row reduction mod
5, and a mix of the first four), this loop's time tracked the short
operations of the three workloads best overall (Horner evaluation did
slightly better on decide alone, worse on the others): over 100 s of
alternating batches, scaling by it cut their spread from 0.33-0.44 to
0.09-0.12 (interquartile range over median).  Operations whose time the
gauge does not follow are left unscaled (`workloads.Op.scaled`).  The raw
wall-clock metrics are reported beside the scaled ones in the run record.
"""
from __future__ import annotations

import statistics
import time

#: the kernel's median time on the machine the benchmark was written on
#: (one core, Python 3.11); scaled timings are seconds at that speed
REFERENCE_KERNEL_S = 0.0027
#: read the gauge before an operation when this long has passed since the
#: last reading, and at the start and end of every round
EVERY_S = 0.25
REPEATS = 3


def kernel() -> int:
    s = 0
    table = {}
    for i in range(20000):
        s += i * i % 7
        table[i & 255] = s
    return s


def read() -> float:
    """The kernel's median time over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Gauge:
    """The readings of one run: (when taken, kernel time)."""

    def __init__(self):
        self.readings: list[tuple[float, float]] = []

    def read(self) -> None:
        value = read()
        self.readings.append((time.perf_counter(), value))

    def due(self) -> bool:
        return time.perf_counter() - self.readings[-1][0] >= EVERY_S

    def around(self, start: float, end: float) -> float:
        """The kernel's time while an operation ran from start to end: the
        median of the readings from one operation length (at least
        EVERY_S) before it to as long after it.  A single reading is a
        few milliseconds of the host's speed; an operation of seconds
        needs readings spread over a like span.  The window always holds
        the reading taken before the operation, which is at most EVERY_S
        older than its start."""
        w = max(EVERY_S, end - start)
        return statistics.median(v for t, v in self.readings if start - w <= t <= end + w)
