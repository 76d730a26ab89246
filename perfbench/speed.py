"""The machine's speed, sampled while each operation runs.

The machine the benchmark runs on is shared, and its speed changes from
second to second with other tenants' load; CPU time moves with wall time,
so neither clock can tell a slower program from a busier machine.  A
``SpeedMeter`` runs a fixed probe (a little stdlib ``Fraction`` arithmetic
and a few ``math.gcd`` calls on integers of a few thousand bits, like the
package's mix of interpreter overhead and big-integer work, but sharing no
code with it) just before and just after each operation, and from a
``SIGALRM`` interval timer every PERIOD_S while it runs.  The operation's cost is its wall time less the probes' own time,
scaled by NOMINAL_PROBE_S over the probes' mean time: what the operation
would take on a machine that runs the probe in NOMINAL_PROBE_S.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.005
# the probe's time on an unloaded core of the machine the benchmark was written on
NOMINAL_PROBE_S = 300e-6
BIG_A, BIG_B = 3 ** 1500 + 7, 5 ** 1300 + 11


def probe() -> int:
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(i % 7 + 1, i % 11 + 2)
    g = 0
    for i in range(6):
        g += math.gcd(BIG_A * (i + 1) + 1, BIG_B + i)
    return x.numerator + g


class SpeedMeter:
    """Context manager around one operation; afterwards ``cost`` is its wall
    time without the probes, at nominal speed."""

    def __init__(self):
        self.probes: list[float] = []
        self.cost = 0.0
        self._start = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        for _ in range(50):  # warm the probe's code and allocator
            probe()

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, *_):
        start = time.perf_counter()
        probe()
        self.probes.append(time.perf_counter() - start)

    def __enter__(self):
        self.probes.clear()
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        inside = sum(self.probes[1:])
        self._probe()
        self.cost = (elapsed - inside) * NOMINAL_PROBE_S / statistics.fmean(self.probes)
        return False
