"""A fixed reference task that measures how fast the host runs Python right now.

The benchmark's host may be shared: on a 2-vCPU host the same CPU-only sweep
took from 1.8 to 4.7 s, in stretches that lasted from seconds to minutes, and
its CPU time swung as far as its wall time. CPU-bound figures are therefore
given in reference seconds: measured seconds x REFERENCE_S / the seconds this
task took alongside them. The task uses no prp_sort code, so a change to the
program cannot move it. It is shaped like the program's hot path: a sort and
a heap driven by a Python comparator.
"""

from __future__ import annotations

import functools
import heapq
import time
from random import Random

# The task's duration on an uncontended 2-vCPU Xeon host, CPython 3.
REFERENCE_S = 0.010

_RNG = Random(7)
_ITEMS = [(_RNG.random(), f"d{i:04d}") for i in range(3000)]


def _compare(a: tuple, b: tuple) -> int:
    return -1 if a[0] < b[0] else (1 if a[0] > b[0] else 0)


def reference_seconds() -> float:
    """Seconds the reference task takes now."""
    started = time.perf_counter()
    for _ in range(3):
        sorted(_ITEMS, key=functools.cmp_to_key(_compare))
        heap: list = []
        for item in _ITEMS[:1500]:
            heapq.heappush(heap, item)
    return time.perf_counter() - started
