"""Machine-speed calibration: a fixed piece of CPU work, independent of the
program, timed next to every repetition.

A shared host runs slower for minutes at a time.  The calibration shows
such a slowdown as much as the workload does, so a run's timings can be
expressed at a reference speed (see ``run.py``).  The work mixes what the
workloads spend their time on: allocating many small objects, sorting,
dict and heap traffic, float math, and numpy passes over arrays.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time

import numpy as np

#: Calibration seconds on the reference host (a 2-vCPU Xeon container,
#: typical of its quiet periods).  A run whose median calibration equals
#: this reports its timings unscaled.
REFERENCE_S = 0.5


class _Item:
    __slots__ = ("x", "y", "key")

    def __init__(self, x: float, y: float, key: int) -> None:
        self.x = x
        self.y = y
        self.key = key


def calibration_s() -> float:
    """Seconds one fixed mix of interpreter and numpy work takes here.

    The collector is paused while it runs, so the time does not depend on
    how many objects the program keeps alive between repetitions."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_work()
    finally:
        if enabled:
            gc.enable()


def _timed_work() -> float:
    t0 = time.perf_counter()
    rng = random.Random(2005)
    items = [_Item(rng.random(), rng.random(), i) for i in range(60_000)]
    groups: dict = {}
    for it in items:
        groups.setdefault(it.key % 997, []).append(it)
    total = 0.0
    for members in groups.values():
        members.sort(key=lambda it: (it.x, it.key))
        total += sum(math.hypot(it.x - 0.5, it.y - 0.5) for it in members[:16])
    heap = [(it.y, it.key) for it in items]
    heapq.heapify(heap)
    order = [heapq.heappop(heap)[1] for _ in range(len(heap) // 2)]
    arr = np.random.default_rng(2005).random(600_000)
    for _ in range(3):
        idx = np.argsort(arr, kind="stable")
        np.cumsum(arr[idx])
        np.argmin(arr.reshape(1200, -1), axis=1)
        np.bincount((arr * 4096).astype(np.int64), minlength=4096)
    if not (total > 0 and order):
        raise RuntimeError("calibration work produced no result")
    return time.perf_counter() - t0
