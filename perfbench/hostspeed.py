"""Host speed, sampled during the run, to take the host's noise out of timings.

The benchmark was tuned on a 2-vCPU virtual machine (Intel Xeon, 2.1 GHz)
whose speed moves between two states: a fixed pure-Python loop took 16-18 ms
or 26-29 ms, for 10-30 s at a time, and medians over 60-second windows still
spread by 32% (interquartile range over median).  No run short enough for the
benchmark's budget averages that out, so raw seconds cannot hold a 25% bound.

:class:`HostSpeed` runs a fixed probe loop from a ``SIGALRM`` handler every
:data:`INTERVAL` seconds while the passes run.  :meth:`HostSpeed.normalize`
turns a measured interval into *reference seconds*: its length minus the
probes that ran inside it, times :data:`REFERENCE_PROBE_S` over the median
probe duration around it.  On that machine this took the spread of a 2-second
``step`` repair from 22% to 7%.  A change to the library changes the work
between probes and shows in full; only the host's speed is divided out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

#: Iterations of the probe loop (about 0.3 ms on the reference machine).
PROBE_LOOPS = 10_000

#: Seconds between probes.
INTERVAL = 0.05

#: Probes this many seconds either side of an interval also describe it.
WINDOW = 0.25

#: Probe duration that defines reference speed: the 5th percentile of the
#: probe on the reference machine, so reference seconds read close to raw
#: seconds when that host runs at its fast state.
REFERENCE_PROBE_S = 0.0003


class HostSpeed:
    """Probe samples of one run: start times and durations, in time order."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []

    def _probe(self, _signum, _frame) -> None:
        start = time.perf_counter()
        total = 0
        for step in range(PROBE_LOOPS):
            total += step
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    @contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        """Probe every :data:`INTERVAL` seconds for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, start: float, end: float) -> float:
        """Reference seconds of the interval ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = end - start - sum(self.durations[lo:hi])
        near = self.durations[
            bisect.bisect_left(self.starts, start - WINDOW):
            bisect.bisect_right(self.starts, end + WINDOW)
        ]
        if not near:
            if not self.durations:
                return busy
            near = [self.durations[min(lo, len(self.durations) - 1)]]
        return busy * REFERENCE_PROBE_S / statistics.median(near)
