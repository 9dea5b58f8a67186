"""Host-speed correction for wall times measured on a shared machine.

On the 2-vCPU virtual machine the benchmark was built on, the same task's
wall time drifted by up to a third within a minute while the process was
never descheduled (CPU time tracked wall time): the host itself ran slower.
Reporting more repetitions does not remove a drift that lasts longer than a
task, so every timed region is paired with a speed reading taken while it
runs. A SIGALRM handler times a fixed reference unit of Python dict/set and
NumPy sort work every ``INTERVAL`` seconds; the region's wall time minus the
time spent in those units, scaled by ``NOMINAL_UNIT_S`` over the median unit
time, is the region's time at nominal host speed.

The reference unit does not call linkmirage, so no change to the library can
move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.2
# median unit time on an idle host of the build machine (Intel Xeon vCPU,
# Python 3.11, NumPy 2.4); it only sets the scale of the reported seconds
NOMINAL_UNIT_S = 0.006

_rng = np.random.default_rng(0)
_KEYS = _rng.integers(0, 1 << 16, 1500).tolist()
_PAIRS = _rng.integers(0, 1 << 20, (6000, 2))
# a working set larger than the caches, for code bound by memory latency
_TABLE = {int(k): i for i, k in enumerate(_rng.integers(0, 1 << 40, 50_000))}
_LOOKUPS = _rng.permutation(list(_TABLE))[:1500].tolist()
_FLOATS = _rng.random(1_000_000)
_GATHER = _rng.integers(0, _FLOATS.size, 20_000)


def reference_unit() -> None:
    """Cache-resident dict/set work, a NumPy sort, and scattered lookups."""
    counts, seen = {}, set()
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
        seen.add((key, key & 7))
    np.unique(_PAIRS, axis=0)
    total = 0
    for key in _LOOKUPS:
        total += _TABLE[key]
    _FLOATS[_GATHER].sum()


# once at import, so that NumPy's lazy submodule imports (numpy.ma) never
# start inside the signal handler while the main code is importing them
reference_unit()


class Timed:
    """Wall time of a region and the reference-unit samples taken during it."""

    def __init__(self):
        self.samples = []
        self.wall = 0.0
        self._sampling = False

    def _sample(self, _signum=None, _frame=None):
        if self._sampling:          # a signal arrived inside the handler
            return
        self._sampling = True
        start = time.perf_counter()
        reference_unit()
        self.samples.append(time.perf_counter() - start)
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:        # region shorter than one interval
            self._sample()
            self.wall += self.samples[-1]
        return False

    @property
    def slowdown(self) -> float:
        """Host slowdown against nominal speed during the region."""
        return statistics.median(self.samples) / NOMINAL_UNIT_S

    @property
    def nominal_s(self) -> float:
        """Region time without the sampling work, at nominal host speed."""
        return (self.wall - sum(self.samples)) / self.slowdown
