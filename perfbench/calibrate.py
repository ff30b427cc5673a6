"""Host-speed calibration: scale measured times to a reference speed.

The benchmark runs on shared machines whose speed drifts with the load
of co-tenants: on a 2-CPU VM the same ATPG round took 10.1 s to 18.1 s
within twenty minutes, and a fixed pure-Python loop slowed with it.
So an untraced run takes a short, fixed calibration sample (interpreter
and numpy work, about 16 ms) between operations, at most every
:data:`INTERVAL_S`.  Each operation's time is multiplied by
``REFERENCE_S / median(samples within WINDOW_S of it)``: the seconds it
would take at the reference speed.  A change to the program moves the
scaled times; a change in host load moves the operation and the nearby
samples together and cancels.  The raw times stay in the result's
``meta``.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: seconds one sample takes on an unloaded reference host (2-CPU x86-64
#: VM, Python 3.11, numpy 2.4), so scaled times read as seconds there
REFERENCE_S = 0.016
INTERVAL_S = 0.5
WINDOW_S = 2.0


class Calibrator:
    """Calibration samples ``(start, seconds)`` taken between operations."""

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        self._a = numpy.arange(1 << 17, dtype=numpy.uint64)
        self._b = self._a * numpy.uint64(2654435761)
        self._c = numpy.empty_like(self._a)
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> float:
        numpy = self._numpy
        start = time.perf_counter()
        table = {}
        total = 0
        for i in range(60000):
            table[i & 1023] = i
            total += table.get((i * 7) & 1023, 0) % 13
        for _ in range(40):
            numpy.bitwise_xor(self._a, self._b, out=self._c)
            numpy.bitwise_and(self._c, self._a, out=self._c)
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        return elapsed

    def maybe_sample(self) -> None:
        """Sample unless the last sample is under :data:`INTERVAL_S` old."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a time measured over ``[start, end]`` to reference speed."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.median(near or [s for _, s in self.samples])

    def overall_scale(self) -> float:
        return REFERENCE_S / statistics.median(s for _, s in self.samples)
