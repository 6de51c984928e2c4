"""Host-normalised timing.

Neighbours on a shared host slow a single thread by up to 1.8x for stretches
of seconds to minutes, and process CPU time slows with it, so two runs of the
same code can differ more than any useful bound. The benchmark therefore
brackets every interval it times with a short fixed probe made of the kinds
of work georank does (a Python loop, small matrix products, float32-to-float64
copies of a 256 KB matrix, a dict of string keys built and read, numpy scalar
arithmetic), divides the interval by the mean of the probes at its two ends
and multiplies by ``REFERENCE_PROBE_S``, the probe's median inside runs on the
machine described in README.md. A time reads as it would on that machine in
its usual state; the probe runs no georank code, so a change to the program
moves the timed interval and not the probe.

The parts stand for the kinds of work that slow differently when the host is
busy. Over five processes, groups of localisations on 1000 references moved
±17 % raw, ±7 % normalised without the dict and scalar parts and ±3.4 % with
them; ``compare_rankings`` moved ±18 % raw, ±11 % and ±7 %. A 4 MB array in
place of the copies ran up to 1.4x slower after a long stretch of program
work than between short operations, which would skew long intervals against
short ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the machine described in README.md.
REFERENCE_PROBE_S = 0.48e-3
PROBE_REPEATS = 5

_MATRIX = np.random.default_rng(0).random((48, 48))
_ROWS = np.ones((1000, 64), np.float32)
_KEYS = [f"r{i:04d}" for i in range(1000)]


def _probe_once() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(1000):
        s += i * i % 7
    for _ in range(5):
        _MATRIX @ _MATRIX
    for _ in range(2):
        _ROWS.astype(np.float64)
    table = {key: (key, i) for i, key in enumerate(_KEYS)}
    for key in _KEYS:
        s += table[key][1]
    for _ in range(150):
        float(np.float64(1.5) * 2.0)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the fixed probe takes now: the median of a few repeats, so one
    interrupt does not decide it."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


class Clock:
    """Accumulates host-normalised seconds between laps; probe time is left out."""

    def __init__(self):
        self.elapsed = 0.0
        self.probes = [probe()]
        self._end = time.perf_counter()

    def lap(self) -> None:
        """Probe now and add the normalised time since the previous lap to ``elapsed``."""
        start = time.perf_counter()
        p = probe()
        self.elapsed += (start - self._end) * 2 * REFERENCE_PROBE_S / (self.probes[-1] + p)
        self.probes.append(p)
        self._end = time.perf_counter()

    def lap_if_due(self, every: float) -> None:
        """Lap if ``every`` seconds have passed since the previous lap."""
        if time.perf_counter() - self._end >= every:
            self.lap()
