"""A fixed piece of reference work, timed between ops to track the machine's speed.

The benchmark's machine is shared: for tens of seconds at a time, other
tenants slow every process on it by up to about 2x. The slowdown affects
interpreter work and numpy kernels alike, so raw wall times of the same code
drift by more than any useful regression bound. Each run therefore times this
probe next to every op and every set-up, and reports times scaled to a
machine on which the probe takes ``NOMINAL_S``:

    normalized seconds = wall seconds * NOMINAL_S / probe seconds

The probe is independent of the package, so a change to the program moves
the normalized time exactly as it moves the wall time at a fixed machine
speed. Raw wall times are printed next to the normalized ones.
"""

import statistics
import time

import numpy as np

# probe duration on an uncontended core of the 2-core reference container
NOMINAL_S = 0.016

# one part each of the package's three kinds of work: interpreter loops,
# numpy kernels, and building seeded RNG streams (which slows the most when
# the machine is contended)
_PY_STEPS = 150_000
# small enough (2 x 256 KiB) not to move the measuring process's peak RSS
_SORT_SIZE = 1 << 15
_SORTS = 20
_STREAMS = 300
_REPEATS = 5


class Probe:
    """Interpreter loop, small numpy sorts and RNG streams; the median of five repeats.

    The median, not the minimum: an op runs at the machine's typical speed
    over its duration, not at its best.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(_SORT_SIZE)
        self._scratch = np.empty_like(self._data)

    def __call__(self) -> float:
        times = []
        for _ in range(_REPEATS):
            start = time.perf_counter()
            acc = 0
            for i in range(_PY_STEPS):
                acc += i * i
            for _ in range(_SORTS):
                self._scratch[:] = self._data
                self._scratch.sort()
            for k in range(_STREAMS):
                np.random.default_rng(np.random.SeedSequence(0, spawn_key=(k,))).random(100)
            times.append(time.perf_counter() - start)
        return statistics.median(times)
