"""Machine-speed gauge: express job times at a fixed reference speed.

On a shared machine the same pure-Python work runs up to 1.6x slower for tens
of seconds at a time, and the process's CPU time slows just as much as its
wall time, so neither longer runs nor CPU clocks remove it.  The gauge times
a fixed reference task between jobs (never inside one) and scales each job's
wall time by the reference's quiet-host time over its median time during the
job's round.  A scaled time reads as the job's wall time on the quiet host.
The reference task is the benchmark's own code, so a change to orientkit
cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Median time of reference_task() on a quiet 2-core x86-64 host under
# CPython 3.11, so scaled times read close to raw ones there.
REFERENCE_S = 0.0027


def reference_task():
    """Integer arithmetic in a bytecode loop.  It allocates nothing the
    cyclic GC tracks, so it never sets off a collection over the jobs' heap
    and only the machine's speed moves its time."""
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


def reference_seconds(repeats=3):
    """Median time of ``reference_task`` as a multiple of REFERENCE_S."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_task()
        times.append(perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


class SpeedGauge:
    """Reads a reference at job boundaries, at most every ``every`` seconds.

    A reading is the reference's time as a multiple of its quiet-host time.
    The jobs of one round share one scale: one over the median reading taken
    during the round, which rides out single noisy readings.
    """

    def __init__(self, every=0.25):
        self.every = every
        self._readings = []
        self._since = None
        reference_task()  # the first run after import is slower; discard it

    def tick(self):
        """Call before each job; takes a reading when one is due."""
        if self._since is None or perf_counter() - self._since >= self.every:
            self._readings.append(reference_seconds())
            self._since = perf_counter()

    def round_scale(self):
        """The scale for the round that just ended; starts the next one."""
        readings, self._readings, self._since = self._readings, [], None
        return 1 / statistics.median(readings)


def scaled(func):
    """Run ``func()``; return (its result, the scale for a time taken in it)."""
    before = reference_seconds()
    result = func()
    return result, 2 / (before + reference_seconds())
