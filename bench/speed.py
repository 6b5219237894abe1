"""Timings scaled by the host's speed, sampled while they are taken.

The benchmark's host runs a process at changing speed: the same warm
operation takes anywhere from 1x to 1.6x its fastest time, the speed changes
many times a second, and how long it stays fast changes over minutes.  Wall
times alone therefore move by a quarter or more between two sets of runs of
the same code.

`Sampler` measures the speed alongside the work: every INTERVAL_S a timer
signal runs a fixed probe of pure interpreter work (float arithmetic and
dict lookups, the benchmark's own code, not jetgeo's) and records how long
it took.  A timed interval is then reported as

    (its wall time - the probes' time inside it)
        * (PROBE_REF_S / mean probe time) ** SLOWDOWN_EXPONENT

over the probes taken inside it (at least MIN_PROBES; the nearest ones when
the interval is short): the time the work would have taken at the speed at
which the probe runs in PROBE_REF_S.  jetgeo's operations slow down more
than the probe when the host is slow: over 30-40 s of repeats of each
operation of `general_metrics` and `check_suite` in one process, the log of
an operation's time against the log of its mean probe time had slopes of
1.1 to 1.45 (correlations 0.89 to 0.99; one of 14 operations, 0.79), hence
the exponent.  A change to jetgeo changes the work, not the probe, so it
moves the scaled time as it moves the wall time.
"""
from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01       # between probes, of wall time
PROBE_REF_S = 0.0003    # probe time at which the host counts as full speed
MIN_PROBES = 8          # probes averaged for a short interval
SLOWDOWN_EXPONENT = 1.3  # d log(operation time) / d log(probe time), measured


_TABLE = {i: i * 0.5 for i in range(97)}


def _probe() -> float:
    # allocates no object the garbage collector tracks, so a probe never
    # sets off a collection of the program's objects
    s = 0.0
    for i in range(3000):
        s += _TABLE[i % 97] * (i & 7)
    return s


class Sampler:
    """Probes the speed on SIGALRM from start() until stop()."""

    def __init__(self) -> None:
        self.starts: list[float] = []     # perf_counter at each probe's start
        self.times: list[float] = []      # each probe's duration

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        _probe()
        self.starts.append(t)
        self.times.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def scaled(self, t0: float, t1: float) -> float:
        """Scale the interval [t0, t1] of perf_counter time to full speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        # a probe runs in this process's only thread, so one that starts in
        # the interval also ends in it
        work = t1 - t0 - sum(self.times[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            # widen towards the nearer neighbour
            if hi >= len(self.starts) or (lo > 0 and t0 - self.starts[lo - 1]
                                          <= self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed probes were taken")
        mean = sum(self.times[lo:hi]) / (hi - lo)
        return work * (PROBE_REF_S / mean) ** SLOWDOWN_EXPONENT
