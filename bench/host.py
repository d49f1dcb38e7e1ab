"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by 20-40 % for
seconds to minutes at a time, as other tenants load the machine.  A fixed
pure-Python loop (tuple building, dict updates, integer arithmetic, the
kind of interpreter work delcodes does) is timed next to every measured
stretch; its time against REF_SECONDS gives the host's speed right then.
Multiplying a measured time by a scale REF_SECONDS / (reference time)
reports it as it would read on a host that runs the loop in REF_SECONDS.
No delcodes code runs in the loop, so a change to the package moves the
measured time and not the scale.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds one reference_seconds() reading takes on the host the benchmark
# was defined on (2-core Firecracker VM, CPython 3.11, quiet).
REF_SECONDS = 0.002

# A round still running after SAMPLE_AFTER seconds is interrupted every
# SAMPLE_EVERY seconds for one more reading, so a long op is scaled by the
# host's speed while it ran and not only at its two ends.  Rounds of the
# sweep and certify workloads end well before SAMPLE_AFTER.
SAMPLE_AFTER = 0.5
SAMPLE_EVERY = 0.1


def _loop() -> int:
    counts: dict[int, int] = {}
    acc = 0
    for i in range(8000):
        key = (i, i * 7 % 13)
        counts[key[1]] = counts.get(key[1], 0) + 1
        acc += len(key) ^ i
    return acc


def reference_seconds() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(*readings: float) -> float:
    """Factor that converts a time measured while these reference readings
    were taken into reference-host time."""
    return REF_SECONDS / statistics.fmean(readings)


class Sampler:
    """Host readings around and, for long rounds, during each round.

    ``clock()`` is perf_counter minus the time spent taking readings from
    the alarm handler, so ops timed with it exclude that time.
    """

    def __init__(self):
        self._stolen = 0.0
        self._inside: list[float] = []
        self._last = reference_seconds()

    def clock(self) -> float:
        return time.perf_counter() - self._stolen

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._inside.append(reference_seconds())
        self._stolen += time.perf_counter() - t0

    def measure(self, fn, *args) -> tuple[float, float]:
        """Run fn(*args); return its seconds by clock() and the host scale
        over the run."""
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_AFTER, SAMPLE_EVERY)
        t0 = self.clock()
        try:
            fn(*args)
        finally:
            seconds = self.clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        before, self._last = self._last, reference_seconds()
        return seconds, scale(before, *self._inside, self._last)
