"""Host-speed normalisation of the benchmark's wall-clock times.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 1.7x over tens of seconds: a run can fall wholly in a slow stretch, so
neither longer runs nor the least of repeated solves make runs agree.  A
fixed pure-Python loop, the probe, slows down by about the same factor as
the solver: over 85 passes of a full_sltl corpus, the slope of log pass time
on log probe time was 0.96, and scaling by the probe cut the spread (the
standard deviation of log pass time) from 0.126 to 0.049.

So the probe is timed between formulas, once per PROBE_EVERY_S of solving,
and a time measured from ``start`` to ``end`` is scaled by ``REF_S`` over the
median probe time near it: within WINDOW_S of it, or for a long solve,
whose own stretch no probe sees, within its own length.  A scaled time
reads as the time on a host on which the probe takes REF_S (0.8-1.4 ms on
the 2-vCPU host the constants were set on).  The probe runs no solver code,
so a change to the solver moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

# The probe's source; the set-up children run it too, before ``import sltl``.
PROBE_SRC = """
def probe():
    t = time.perf_counter()
    s = 0
    for i in range(15000):
        s += i * i % 7
    return time.perf_counter() - t
"""
_ns = {"time": time}
exec(PROBE_SRC, _ns)
probe = _ns["probe"]

REF_S = 0.001
PROBE_EVERY_S = 0.025
WINDOW_S = 0.5


class HostSpeed:
    """Probe times of one run, and the scale they give a measured time."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter() at each probe's start
        self.took: list[float] = []
        self._solved = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.at.append(time.perf_counter())
            self.took.append(probe())

    def after_solve(self, seconds: float) -> None:
        """Probe once PROBE_EVERY_S of solving has passed since the last probe."""
        self._solved += seconds
        if self._solved >= PROBE_EVERY_S:
            self._solved = 0.0
            self.sample()

    def scale(self, start: float, end: float) -> float:
        pad = max(WINDOW_S, end - start)
        near = self.took[bisect_left(self.at, start - pad):bisect_right(self.at, end + pad)]
        return REF_S / statistics.median(near or self.took)
