"""Scaling measured times to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within minutes, as other tenants come and go. A time measured in one
run then says as much about the host as about the program. So the benchmark
times a fixed reference kernel between stretches of measured work and
scales each stretch by how fast the kernel ran around it:

    scaled = raw * REFERENCE_S / (mean kernel time just before and just after)

A scaled time is the time the stretch would have taken on a host where the
kernel takes REFERENCE_S. The kernel does the kind of work the program does
(Python integer and dict operations, and numpy comparisons, masks and fancy
indexing on rows of a small int16 table) and calls nothing of the program,
so a change to the program moves scaled times and a change in host speed
mostly does not. Raw times stay in the run record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# A round figure near the kernel's time on the reference host (2 vCPUs,
# Python 3.11.7, numpy 2.4.6), where its readings ran from 0.0107 to 0.0131 s.
# Changing it rescales every reported time, so it stays fixed.
REFERENCE_S = 0.011
# A query stream is closed into a stretch after about this much raw time.
LAP_S = 0.5

_rng = np.random.default_rng(20150112)
_TABLE = _rng.integers(0, 256, (256, 256)).astype(np.int16)
_MASK = _rng.random(256) < 0.3


def kernel() -> int:
    """Fixed work that touches nothing of the program."""
    acc = 0
    seen = {}
    for i in range(10000):
        acc = (acc * 31 + i) % 1000003
        seen[i & 1023] = acc
    for i in range(750):
        r = i & 255
        hits = np.flatnonzero((_TABLE[r] == (i & 127)) & _MASK)
        sub = _TABLE[_TABLE[r, :], (i * 7) & 255]
        acc += len(hits) + int(sub[3]) + bool((sub == r).any())
    return acc + len(seen)


def kernel_time(readings: int = 3) -> float:
    """Median time of a few kernel runs."""
    times = []
    for _ in range(readings):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[readings // 2]


class Gauge:
    """A clock whose laps are scaled to the reference speed.

    ``lap()`` closes the stretch since the previous lap (or since the gauge
    was made), reads the kernel, and returns the stretch's scaled time and
    its scale factor. Kernel readings are not part of any stretch.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.raw_total = 0.0
        self.scaled_total = 0.0
        self._kernel_s = kernel_time()
        self.started = perf_counter()

    def lap(self) -> tuple[float, float]:
        raw = perf_counter() - self.started
        t0 = perf_counter()
        kernel()
        after = perf_counter() - t0
        self.readings.append(after)
        factor = 2.0 * REFERENCE_S / (self._kernel_s + after)
        self._kernel_s = after
        self.raw_total += raw
        self.scaled_total += raw * factor
        self.started = perf_counter()
        return raw * factor, factor

    def due(self) -> bool:
        return perf_counter() - self.started >= LAP_S
