"""The host's speed, measured alongside the workload, and times scaled by it.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.6x over seconds to minutes, for every kind of work alike.  A run
that lands in a slow stretch reads slow on every metric, and no way of
aggregating its own operations removes that.  So the parent process times
a fixed reference routine (big-integer multiply-adds, a small-integer
table loop, a small float64 matrix product and a pass over int64 arrays
larger than the L2 cache: the kinds of work the library does) every
SAMPLE_EVERY_S seconds between operations, and every operation's time is
scaled to the host speed at which the routine takes NOMINAL_S:

    s = raw_s * NOMINAL_S / (mean routine time around the operation)

"Around" is the samples from WINDOW_S before the operation starts to
WINDOW_S after it ends.  The routine
never calls the library, so a change to the library moves the scaled time
exactly as it moves the raw one, while a slow stretch of the host moves the
routine and the operation together and cancels.  Raw times stay in the
result file next to the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

NOMINAL_S = 0.010  # reference routine time that scaled seconds assume
SAMPLE_EVERY_S = 0.25
WINDOW_S = 2.0
MIN_SAMPLES = 6  # fewer in the window: the nearest ones are taken instead

_BIG = random.Random(7).getrandbits(16000)
_TABLE = list(range(256))
_MATRIX = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096
_STREAM = np.arange(1 << 19, dtype=np.int64)  # 4 MiB each
_STREAM_OUT = np.empty_like(_STREAM)


def reference_routine() -> float:
    """Seconds the fixed routine takes now; about NOMINAL_S on a quiet host,
    in four parts of similar length."""
    t0 = time.perf_counter()
    s = _BIG
    for i in range(1600):
        s = (s * (i | 1) + _BIG) >> 3
    acc = 0
    for i in range(33000):
        acc = (acc + _TABLE[(i * 7) & 255] * 3) % 251
    m = _MATRIX
    for _ in range(24):
        m = (m @ _MATRIX) % 1.0
    np.multiply(_STREAM, 3, out=_STREAM_OUT)
    np.remainder(_STREAM_OUT, 7, out=_STREAM_OUT)
    return time.perf_counter() - t0


class SpeedLog:
    """Timed samples of the reference routine, taken between operations."""

    def __init__(self):
        self.samples = []  # (midpoint on the perf_counter clock, seconds)

    def sample(self):
        t0 = time.perf_counter()
        s = reference_routine()
        self.samples.append((t0 + s / 2, s))

    def maybe_sample(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean routine time around [t0, t1]."""
        near = [s for t, s in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = [s for _, s in sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:MIN_SAMPLES]]
        return NOMINAL_S / statistics.fmean(near)

    def summary(self) -> dict:
        xs = [s for _, s in self.samples]
        return {
            "samples": len(xs),
            "nominal_s": NOMINAL_S,
            "median_s": statistics.median(xs) if xs else None,
            "min_s": min(xs, default=None),
            "max_s": max(xs, default=None),
        }
