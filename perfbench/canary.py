"""Fixed reference computations that track the machine's momentary speed.

On a shared machine the same code runs 30-50% slower for tens of seconds
at a time.  Timing a canary just before each request and dividing the
request's wall time by it cancels most of that swing, leaving the program's
own cost.  Pure-Python work (dicts of tuples and complex numbers, like the
state engine and per-call set-up) and numpy work on arrays too large for
the L2 cache (uint64 mixing and float conversion, like the RNG and trial
sampling) slow down by different amounts, so each workload uses the canary
that matches its mix.  The canaries do not touch entdist.  The numpy canary
holds about 6 MB while it runs, which sets a floor under peak RSS.
"""
from __future__ import annotations

import numpy as np

_MIX = np.uint64(0xBF58476D1CE4E5B9)


def python_work() -> int:
    total = 0
    for _ in range(4):
        table: dict[tuple, complex] = {}
        for i in range(5000):
            key = (i, i & 7, "x")
            table[key] = table.get(key, 0j) + complex(i)
        total += len(table)
    return total


def numpy_work() -> float:
    words = np.arange(250_000, dtype=np.uint64)
    total = 0.0
    for _ in range(3):
        z = words >> np.uint64(30)
        z ^= words
        z *= _MIX
        z >>= np.uint64(11)
        total += float(z.astype(np.float64).sum())
    return total
