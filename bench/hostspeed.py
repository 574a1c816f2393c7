"""Host-speed calibration: raw wall times to seconds at a reference speed.

The benchmark runs on a shared host whose speed drifts by tens of percent
over tens of seconds, so a raw wall time measures the neighbours as much as
liftdep. A fixed chunk of work that does not touch liftdep is timed between
ops, and every 0.1 s while a child process runs: a pure-Python loop, a
numpy reduction and a scipy ``quad``, the three kinds of work liftdep does.
A wall measured while the chunk took ``c`` seconds (median of the chunks
just before, during and just after) is reported as ``wall * REF_CHUNK_S / c``. A change in liftdep moves that figure in full; a
change in host speed moves the chunk too and largely cancels.

Importing this module imports numpy and scipy, so a process whose set-up
time is measured must not import it before that measurement.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import integrate

# Median chunk time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4, scipy 1.17), so reported figures stay in seconds.
REF_CHUNK_S = 0.0019
_X = np.linspace(-4.0, 4.0, 4001)


def _wave(t: float) -> float:
    return math.exp(-t * t) * math.cos(3.0 * t)


def chunk() -> float:
    """Seconds taken by the fixed calibration work."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += math.sqrt(i) * 0.5
    for _ in range(20):
        np.exp(-0.5 * _X * _X).sum()
    integrate.quad(_wave, -6.0, 6.0)
    return time.perf_counter() - t0


class HostClock:
    """Calibration ticks of one run: groups of chunk times, each taken
    between timed ops (``chunks`` of them) or while a child ran."""

    def __init__(self, chunks: int):
        self.chunks = chunks
        self.ticks: list[list[float]] = []

    @property
    def samples(self) -> list[float]:
        return [c for t in self.ticks for c in t]

    def record(self, samples) -> int:
        """Keep a group of chunk times; return its index."""
        self.ticks.append(list(samples))
        return len(self.ticks) - 1

    def tick(self) -> int:
        """Time ``chunks`` chunks now; return the group's index."""
        return self.record(chunk() for _ in range(self.chunks))

    def factor(self, *ticks: int) -> float:
        """Reference-speed factor of what ran around the given groups."""
        return REF_CHUNK_S / statistics.median(c for t in ticks for c in self.ticks[t])
