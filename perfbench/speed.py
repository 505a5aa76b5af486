"""Samples how fast the core runs while an invocation is timed.

The benchmark runs on a few cores of a shared host.  The host's other load
changes the speed of a core in phases of seconds to minutes, by up to 1.7
times, and every layer of xfem2d slows by the same factor.  So, while a
worker times an invocation, an interval timer interrupts it every
``INTERVAL_S`` seconds and times a fixed, small piece of pure-Python work
(about 1 ms) in the same thread.  The probes' time is taken off the
invocation's wall time, and ``run.py`` scales a run's times by
``REFERENCE_S / mean probe time``: the time the work would take with the
core at its reference speed.  The probe touches no xfem2d code and
allocates almost nothing, so no change to the program moves it.
"""

import signal
import time

INTERVAL_S = 0.1
# About the mean probe time on the 2-vCPU shared x86-64 host the bounds
# were tuned on (0.86 ms in a quiet phase).  It only sets the scale of the
# scaled times.
REFERENCE_S = 0.9e-3


def _work():
    table = {}
    x = 0.5
    for i in range(7500):
        key = i & 63
        table[key] = table.get(key, 0.0) + x
        x = x * 1.0000001 + 1e-9
    return x


class Sampler:
    """Context manager that probes the core's speed while it is active.

    ``probes`` holds the time of each probe; ``total`` their sum.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.probes = []

    def _probe(self, signum, frame):
        start = time.perf_counter()
        _work()
        self.probes.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def total(self):
        return sum(self.probes)
