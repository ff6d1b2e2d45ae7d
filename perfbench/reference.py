"""Host-speed reference for scaling measured times.

On a shared host the interpreter's speed drifts by more than half within
minutes, and every job slows with it. The benchmark therefore times this fixed
piece of pure-Python work (table walks and bitmask updates, the operations
``permlat`` spends its time in) between jobs, and reports each job's time
scaled to the speed at which the reference takes ``REF_SECONDS``:

    scaled = measured * REF_SECONDS / (reference time around the job)

The reference never calls ``permlat``, so a change to the program moves the
scaled times exactly as it moves the measured ones.
"""
from __future__ import annotations

import time

REF_SECONDS = 0.010  # the reference's duration at the speed times are scaled to

_N = 211
_TABLE = tuple(tuple((a * b + 3 * a + 7 * b) % _N for b in range(_N)) for a in range(_N))


def reference_work() -> int:
    total = 0
    for start in range(96):
        mask = 1 << start
        queue = [start]
        for x in queue:
            row = _TABLE[x]
            for g in (1, 2, 5):
                y = row[g]
                bit = 1 << y
                if not mask & bit:
                    mask |= bit
                    queue.append(y)
        total += mask.bit_count()
    return total


def measure() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
