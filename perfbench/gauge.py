"""Speed gauge: time a fixed mix of interpreter and numpy work.

The host's speed drifts by tens of percent over minutes.  Every workload
interpreter times this gauge in a forked child once it is ready, and a
measuring one also after each pass; ``run.py`` scales every time by the
gauges next to it, so that the drift cancels.  The mix mirrors the workloads: dict and set updates, sorting and
small numpy arrays.  It runs no ellis code.  It is timed in five chunks,
and the median chunk stands for the whole, so that a stall of the host
during one chunk does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CHUNKS = 5                 # timed separately, so that one stall moves only one
ROUNDS = 9                 # per chunk; a gauge takes about 0.3 s on a 2-core Xeon VM


def chunk() -> float:
    start = time.perf_counter()
    for _ in range(ROUNDS):
        counts = {}
        for i in range(20000):
            k = i % 997
            counts[k] = counts.get(k, 0) + (i * i) % 7
        union = set()
        for j in range(800):
            union |= frozenset(range(j, j + 12))
        sorted(str(j * 7919 % 10007) for j in range(4000))
        a = np.arange(8000, dtype=float)
        for _ in range(20):
            (a * a).sum()
            np.sort(a[::-1])
    return time.perf_counter() - start


def gauge() -> float:
    """The median chunk time, times the number of chunks."""
    return CHUNKS * statistics.median(chunk() for _ in range(CHUNKS))
