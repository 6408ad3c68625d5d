"""A fixed pure-Python kernel that gauges how fast the host runs Python now.

The host this benchmark was written on is shared.  For tens of seconds at a
time it runs Python up to twice as slowly, in CPU time as well as in wall
time, so the raw time of a workload says as much about the neighbours as
about treeirs.  The worker therefore gauges the host with this kernel at
every step boundary of the timed body and, inside long steps, every
``workloads.GAUGE_EVERY`` seconds, always outside the timed intervals.  Each
interval is divided by the mean of the gauges at its ends and multiplied by
``KERNEL_S``: the result is its time on a host that runs the kernel in
``KERNEL_S``.  Gauging right next to the interval matters: gauges taken a few
seconds away track the slowdown poorly.

The kernel does what treeirs spends its time on: it builds small tuples,
indexes them, hashes them into a dict and does some float arithmetic.  It
uses nothing of treeirs, so no change to the program changes its time.
"""

from __future__ import annotations

import math
import time

KERNEL_S = 0.001  # the nominal host runs the kernel in this many seconds
RUNS = 5  # kernel runs per gauge


def kernel() -> float:
    """About a millisecond of tuple, dict and float work."""
    p = tuple(range(12))
    q = (3, 7, 0, 11, 5, 1, 9, 2, 10, 4, 8, 6)
    seen: dict = {}
    acc = 0.0
    for i in range(1, 800):
        p = tuple(q[x] for x in p)
        seen[p] = seen.get(p, 0) + i
        acc += math.log(i) - math.exp(-i / 1000.0)
    return acc + len(seen)


def gauge() -> float:
    """The median time in seconds of ``RUNS`` runs of the kernel."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]
