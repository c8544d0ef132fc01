"""Machine-speed calibration for the end-to-end timings.

On a shared host the CPUs this benchmark gets can each run a third slower,
or worse, for seconds at a time.  Other tenants contend for the same
cores, so CPU time slows as much as wall time does.  A run that lands in
a slow spell would read as a regression.  So each run times a short fixed
kernel on each CPU, before every invocation, and run.py scales the run's
medians by the median slowdown against NOMINAL_S.

The kernel is frozen here and never imports the program, so a change to
the program cannot move it.  It has the program's mix of work: a
validating frozen dataclass, NumPy calls on scalars, a 1000-point NumPy
objective, and a scalar golden-section loop.  A kernel of plain
interpreter loops tracks the program less closely.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median kernel time on an Intel Xeon 2-vCPU VM (Python 3.11, NumPy
# 2.4).  It only sets the scale of the reported numbers.
NOMINAL_S = 0.0065

_GRID = np.linspace(0.05, 0.45, 1000)


@dataclass(frozen=True)
class _Link:
    gs: float
    gw: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gs) and self.gs > 0 and self.gw > 0):
            raise ValueError("bad link")


def kernel(links: int = 100) -> tuple[float, float]:
    """Wall and CPU seconds to run the fixed calibration work once."""
    start, start_cpu = time.perf_counter(), time.thread_time()
    acc = 0.0
    for i in range(links):
        link = _Link(2.0 + 0.01 * i, 1.0 + 0.005 * i)
        g = np.asarray(link.gs, dtype=float)
        if not np.all(np.isfinite(g)) or np.any(g <= 0):
            raise ValueError("bad gain")
        lower = 1.0 / (1.0 + float(np.sqrt(1.0 + g)))
        r_s = np.log2(1.0 + _GRID * link.gs / (1.0 + 0.01 * (1.0 - _GRID) * link.gs))
        r_w = np.log2(1.0 + (1.0 - _GRID) * link.gw / (1.0 + _GRID * link.gw))
        k = int(np.argmax(np.log(r_s) + np.log(r_w)))
        lo, hi = _GRID[max(k - 1, 0)], _GRID[min(k + 1, len(_GRID) - 1)]
        for _ in range(20):
            m1, m2 = lo + 0.382 * (hi - lo), lo + 0.618 * (hi - lo)
            if math.log(math.log2(1 + m1 * link.gs)) > math.log(math.log2(1 + m2 * link.gs)):
                hi = m2
            else:
                lo = m1
        acc += lower + lo
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return time.perf_counter() - start, time.thread_time() - start_cpu


def cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned(cpu_set):
    """Run this process (and what it starts meanwhile) on `cpu_set` only."""
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpu_set)
    try:
        yield
    finally:
        os.sched_setaffinity(0, old)


def slowdown(cpu: int) -> tuple[float, float]:
    """How many times slower than nominal `cpu` runs right now, by the wall
    clock and by the CPU clock.

    Each CPU is measured on its own: on the shared host the two vCPUs slow
    down independently of each other.  The two clocks differ when the vCPU
    itself is descheduled: wall time grows, CPU time does not.
    """
    with pinned({cpu}):
        times = [kernel() for _ in range(5)]
    return tuple(statistics.median(t[i] for t in times) / NOMINAL_S for i in (0, 1))
