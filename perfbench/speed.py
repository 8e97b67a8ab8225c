"""Machine-speed sampling, to adjust pass times for load from other tenants.

On a shared host the same pass can take 15-35 % longer from one minute to
the next while the process itself is never descheduled (its CPU time
equals its wall time): other load slows the cores it runs on.
``SpeedSampler`` times a fixed reference loop every ``INTERVAL_S`` seconds
from a SIGALRM handler, which runs in the main thread between bytecodes of
the measured code, so the samples see the same slow-downs the pass sees.
``adjusted`` converts a pass time to seconds at the reference speed
``REF_NOMINAL_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
# Scale of the adjusted times: a typical time of one reference loop on the
# 2-vCPU x86-64 host the benchmark was defined on (Python 3.11.7).
REF_NOMINAL_S = 0.0006


def reference_loop() -> Fraction:
    """A fixed amount of the work the library does most: Fraction
    arithmetic and dict updates keyed by small tuples."""
    table: dict = {}
    acc = Fraction(0)
    for i in range(1, 150):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * 7
        acc += Fraction(1, i % 11 + 1)
    return acc


class SpeedSampler:
    """Context manager that samples the reference loop during a block."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @staticmethod
    def _time_reference() -> float:
        # A garbage collection of the measured code's heap must not land in
        # a sample; the collection then runs in the measured code, where it
        # belongs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def _sample(self, signum, frame) -> None:
        self.samples.append(self._time_reference())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjusted(self, elapsed_s: float) -> float:
        """Seconds the block would take at the nominal reference speed,
        without the time spent in the samples themselves.  The median sample
        sets the speed, so that a rare slow sample cannot skew it."""
        own = elapsed_s - sum(self.samples)
        ref = statistics.median(self.samples) if self.samples else self._time_reference()
        return own * REF_NOMINAL_S / ref
