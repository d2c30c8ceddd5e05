"""Fixed reference work that measures how fast the machine runs right now.

On a shared machine the same work takes up to twice as long in one moment
as in the next: the CPU the benchmark runs on slows down while other
tenants load the host, and the share of slow moments changes from minute to
minute.  CPU time slows down with wall time, so no clock filters this out.
The benchmark therefore runs short slices of this reference work next to
its operations, on the same CPU, and divides their times by the slices'
slowdown.  A slice mixes what tugplan's hot paths do, recursive search over
Python lists and sets with float arithmetic and numpy calls on small arrays.
It never imports tugplan, so a change to the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# One slice on an unloaded moment of the machine the benchmark was defined
# on (2-core x86-64, Python 3.11, numpy 2.4); scaled times are in its seconds.
SLICE_S = 0.0025

_SIZE = 10
_DIST = [[float((7 * i + 3 * j) % 11 + 1) for j in range(_SIZE)] for i in range(_SIZE)]
_STEP = np.linspace(0.5, 1.5, 32)


def _search(cur: int, left: set, cost: float, best: list) -> None:
    if cost >= best[0]:
        return
    if not left:
        best[0] = cost
        return
    for j in sorted(left):
        left.remove(j)
        _search(j, left, cost + _DIST[cur][j], best)
        left.add(j)


def reference_work() -> float:
    best = [float("inf")]
    _search(0, set(range(1, _SIZE)), 0.0, best)
    acc = np.zeros(_STEP.shape)
    for k in range(300):
        acc = np.maximum(acc + _STEP, 0.25 * k)
        acc[acc > 40.0] = 0.0
    return best[0] + float(acc.sum())


def timed_slice() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start

