"""Host speed, sampled while a measured call runs.

On a shared machine the speed of a core drifts by 20 to 40% within
seconds, and no run length averages that away.  While a call is measured,
a SIGALRM timer interrupts it every INTERVAL_S seconds and times a fixed
kernel of small-array numpy calls, run twice so that the timed run finds
its data in cache whatever the call had been doing.  Of the kernels tried
(a pure interpreter loop, small-array numpy calls, a 2 MB reduction) this
one tracked every workload best.  ``factors()`` is the time-weighted mean of
REFERENCE_S over the kernel's time, so that seconds times the factor are
the seconds the call would have taken at the speed where the kernel takes
REFERENCE_S.  On a 2-core Xeon VM this cut the spread of run medians
across seeds from 13-17% to 3-5%.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.02
REFERENCE_S = 40e-6  # about the warm kernel's time on a busy 2-core Xeon VM


class SpeedProbe:
    def __init__(self):
        self._small = np.random.Generator(np.random.Philox(key=0)).random(500)
        self._samples = []
        self._since = self._began = 0.0

    def _kernel(self):
        for _ in range(10):
            np.log(self._small).sum()

    def _sample(self, signum=None, frame=None):
        """Time the kernel, by the clock and in CPU time; it stands for the
        gap since the previous sample."""
        self._kernel()
        started, cpu = time.perf_counter(), time.thread_time()
        self._kernel()
        cpu, ended = time.thread_time() - cpu, time.perf_counter()
        self._samples.append((started - self._since, ended - started, cpu, ended))
        self._since = ended

    @contextmanager
    def sampling(self):
        """Sample the speed while the body runs, and once at its end."""
        self._samples = []
        self._since = self._began = time.perf_counter()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def factors(self):
        """REFERENCE_S over the kernel's clock time and over its CPU time,
        averaged over the last body: the scales for wall and CPU seconds.
        Only the first counts time the process waited for a core."""
        total = sum(gap for gap, *_ in self._samples)
        return tuple(sum(gap * REFERENCE_S / s[i] for gap, *s in self._samples) / total
                     for i in (0, 1))

    def wall_factor_between(self, start, end):
        """The wall scale for part of the last body: each sample stands for
        the time since the previous one, weighted by its overlap."""
        weight = total = 0.0
        covered_from = self._began
        for _, tau, _, ended in self._samples:
            overlap = min(ended, end) - max(covered_from, start)
            if overlap > 0:
                weight += overlap
                total += overlap * REFERENCE_S / tau
            covered_from = ended
        return total / weight if weight else 1.0
