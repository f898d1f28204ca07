"""Host speed probe, to report times at one reference speed.

The machine this benchmark was built on is shared: the speed of the same
pure-Python loop drifts by up to 2x within seconds, with no steal time
and with CPU time tracking wall time.  A short fixed loop of the kind of
work the package does (Fraction arithmetic, hashing, sorting), timed next
to each call, measures that speed; a call's time scaled by
`PROBE_REF_S / probe time` is its time at the speed where the probe takes
`PROBE_REF_S`.  A change to the package changes the call's time and not
the probe's, so it shows in full.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The probe's time in a fast stretch of the reference machine (2-vCPU VM,
# CPython 3.11.7); scaled times read as seconds at that speed.
PROBE_REF_S = 0.002


def _probe_loop() -> None:
    total, dens = Fraction(0), []
    for i in range(1, 700):
        total += Fraction(i % 13, i % 7 + 1)
        dens.append(total.denominator)
    sorted(dens)
    dict.fromkeys(dens)


def probe_s() -> float:
    """Fastest of two runs of the probe loop."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _probe_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def at_ref(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, at the
    reference speed."""
    return seconds * 2 * PROBE_REF_S / (before + after)


class SpeedProbe:
    """The probe's time, taken afresh when the last one is older than
    `EVERY_S`: often enough to follow the drift, rarely enough to add
    about 5% to a round."""

    EVERY_S = 0.1

    def __init__(self):
        self.taken = float("-inf")
        self.value = 0.0

    def now(self) -> float:
        if time.perf_counter() - self.taken > self.EVERY_S:
            self.value = probe_s()
            self.taken = time.perf_counter()
        return self.value
