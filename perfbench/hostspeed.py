"""Scaling measured times to one reference host speed.

The reference machine's speed switches between levels up to 1.9x apart,
for spans of a fraction of a second to a minute, for causes outside the
machine (see NOTES.md). A run that happens to fall in a slow stretch
reads slow on every statistic of its own samples. So while a ``HostMeter``
is running, a timer signal interrupts the run every ``PERIOD_S`` and
times a fixed calibration snippet. The snippet calls numpy on small
arrays in a Python loop, as the engine does, but uses no statenet code:
a change to the program does not move it, and the host's speed level
does. A timed interval is then scaled by the snippet's mean time inside
it, against ``REFERENCE_S``, its time on the reference machine at the
fast level.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.02
REFERENCE_S = 80e-6

_INDEX = np.arange(24) % 19


def snippet() -> None:
    a = np.zeros(24)
    for _ in range(20):
        u = np.zeros(24)
        np.add.at(u, _INDEX, a * 0.5)
        a = np.tanh(u + 0.1)


class HostMeter:
    """Times ``snippet`` every ``PERIOD_S`` of wall time while entered."""

    def __init__(self):
        self.ends = array("d")       # when each reading finished
        self.costs = array("d")      # time of each reading's timed snippet
        self.spent = array("d")      # time of each whole reading

    def read(self) -> None:
        # the first run refills the caches that the interrupted code used
        # for itself, so that the timed run sees the host, not the program
        start = time.perf_counter()
        snippet()
        t0 = time.perf_counter()
        snippet()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.costs.append(t1 - t0)
        self.spent.append(t1 - start)

    def __enter__(self) -> "HostMeter":
        self.read()
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.read())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled_seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] less the readings taken inside it, at the
        reference speed. An interval too short to hold a reading uses the
        first reading after it, or the last one taken."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = self.costs[lo:hi]
        if inside:
            busy = t1 - t0 - sum(self.spent[lo:hi])
            level = sum(inside) / len(inside)
        else:
            busy = t1 - t0
            level = self.costs[min(lo, len(self.costs) - 1)]
        return busy * REFERENCE_S / level
