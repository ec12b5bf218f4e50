"""Host speed, measured around every timed op, and the per-op latency built from it.

The benchmark runs on small shared hosts whose speed changes by up to 1.75x
within two minutes and stays changed for minutes, so a raw time measures the
host as much as the program.  Before each op, after the last one and around
each set-up, the benchmark times two fixed pure-Python loops that call
nothing of gek, one mostly arithmetic and one that allocates small objects;
the sum of their fastest of three runs is the host's speed at that moment.
A time is then reported in reference seconds, ``measured seconds *
REFERENCE_S / calibration``: the seconds it would take on a host that runs
the loops in ``REFERENCE_S``.  An op's calibration is the median of the ten
taken nearest to it, which follows changes that last seconds or more
without adding the loops' own jitter.  The program cannot change the loops,
so the ratio still moves one for one with the program's own cost; the raw
seconds are printed beside it.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 4.0e-3  # a fixed scale: the loops took 2.5-4.5 ms on a 2-vCPU shared x86-64 VM, Python 3.11
NEIGHBOURS = 4  # an op's calibration window: this many ops on each side, plus its own two


def _arithmetic() -> float:
    acc, items = 0.0, []
    for i in range(15_000):
        acc += (i * i % 7) * 0.5
        if i % 8 == 0:
            items.append((i, acc))
    return acc + len(items)


def _allocation() -> int:
    items = []
    for i in range(1_500):
        items.append({"a": i, "b": (i, i + 1), "c": [i]})
    return len(items)


def _fastest(loop, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate(reps: int = 3) -> float:
    """Fastest of ``reps`` runs of each loop, summed, in seconds."""
    return _fastest(_arithmetic, reps) + _fastest(_allocation, reps)


def adjusted(seconds: float, calibration: float) -> float:
    return seconds * REFERENCE_S / calibration


def per_op(latencies: list, calibrations: list, ops_per_cycle: int) -> list:
    """Each op of a cycle at its median adjusted latency over its repetitions (one per cycle).

    ``calibrations`` holds one more entry than ``latencies``: the host speed
    before each op and after the last.
    """
    k = ops_per_cycle
    adj = [adjusted(t, statistics.median(calibrations[max(0, j - NEIGHBOURS):j + NEIGHBOURS + 2]))
           for j, t in enumerate(latencies)]
    return [statistics.median(adj[i::k]) for i in range(min(k, len(adj)))]
