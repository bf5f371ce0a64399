"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of one core drifts by 20-40% within seconds, as
other tenants come and go, and a pure wall-clock time of a one-client loop
drifts with it.  The benchmark therefore runs this kernel between every two
ops and reports each op's time in *reference seconds*: its wall time scaled
by ``REFERENCE_S`` over the mean wall time of the two kernel runs that
bracket it.  The kernel is pure-Python Dijkstra with ``heapq`` on a fixed
graph, the same kind of work as the library's own searches, so it slows
down and speeds up with the host the way the ops do, while a change to the
library cannot change the kernel.  The garbage collector is off while the
kernel runs, so garbage an op left behind is collected on the op's time.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

# About the kernel's median wall time on the machine the benchmark was
# defined on (2 vCPUs of a shared Xeon host at 2.1 GHz, where it ranged
# from 2.5 to 4 ms); a reference second is a second of that machine at
# that speed.
REFERENCE_S = 0.003


def _graph(n: int = 300, half_degree: int = 3, seed: int = 0) -> list[list[tuple[int, int]]]:
    rng = random.Random(seed)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u in range(n):
        for _ in range(half_degree):
            v, w = rng.randrange(n), rng.randint(1, 100)
            if v != u:
                adj[u].append((v, w))
                adj[v].append((u, w))
    return adj


_ADJ = _graph()
_SOURCES = range(0, len(_ADJ), 50)


def _searches() -> int:
    total = 0
    for source in _SOURCES:
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist.get(v, nd + 1):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


def kernel_seconds() -> float:
    """Run the kernel once: its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _searches()
        seconds = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return seconds


class Clock:
    """Wall times turned into reference seconds by the kernel runs around them."""

    def __init__(self):
        self.last = kernel_seconds()

    def scale(self) -> float:
        """Run the kernel once more; the factor for the interval since the last run."""
        now = kernel_seconds()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return factor
