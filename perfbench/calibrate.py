"""A fixed unit of work that measures how fast the machine runs right now.

On a shared machine the speed of a core drifts by a quarter or more over
tens of seconds, with other tenants' load.  The benchmark times this unit
between CLI calls and scales each call's time by `REFERENCE_S` over the mean
of the readings on either side, which cancels most of the drift.  The unit mixes what the workloads
do: an interpreter loop over small arrays (the snapshot loop and the greedy
heap), rank-1 updates of a tableau larger than L2 (the simplex), and sorting
and searching a few million integers (the D2D Monte Carlo chunk).  It uses
only numpy, never helpercache, so a change of the program cannot change it.
"""

from __future__ import annotations

import heapq
import os
import time

import numpy as np

# Median unit time, in seconds, on the machine the benchmark was defined on
# (2-core Intel Xeon, Python 3.11, numpy 2.4, one thread).  Scaled times read
# as seconds on that machine at its median speed.
REFERENCE_S = 0.25


def unit() -> float:
    """Run the unit once; return a checksum so the work cannot be skipped."""
    rng = np.random.default_rng(12345)
    small = rng.random((32, 32))
    heap: list = []
    total = 0.0
    for i in range(12000):
        row = small[i % 32]
        total += float(row[row > 0.5].max(initial=0.0))
        heapq.heappush(heap, (total % 1.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    tableau = rng.random((600, 1800))
    for i in range(30):
        col = tableau[:, i] / (1.0 + i)
        tableau -= np.outer(col, tableau[i])
    keys = rng.integers(0, 1 << 30, size=1 << 19)
    order = np.argsort(keys, kind="stable")
    found = np.searchsorted(keys[order], keys[: 1 << 17])
    return total + float(tableau[0, 0]) + float(found.sum())


def timed_unit() -> float:
    t0 = time.perf_counter()
    unit()
    return time.perf_counter() - t0


def timed_unit_forked() -> float:
    """`timed_unit()` in a forked child, so that the unit's arrays do not
    raise the calling process's peak resident set.  The caller must be
    single-threaded."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            os.write(write, repr(timed_unit()).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    return float(text)
