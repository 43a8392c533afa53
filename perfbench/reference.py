"""A fixed reference computation that measures how fast the host runs now.

The benchmark's hosts change speed by up to half within a minute, and
the change reaches every run's timings.  Before each in-process op, and
three times before and after every set-up (inside the serve daemon for
its boot), the benchmark runs this reference on the same thread and
divides the times it measured by the reference's slowdown against
:data:`NOMINAL_S`.  The reported times are therefore times at one fixed
host speed; the raw ones are printed beside them.  The reference's own
speed depends a little on what ran before it (cache contents), so a
change to the program's memory behaviour can move the scaled figures a
little on its own.

The reference is a pure-Python Dijkstra over a seeded 40k-node grid
held as compact CSR arrays (about 3 MB), stopped after :data:`SETTLE`
nodes: heap, dict and set traffic over a working set larger than the
caches, like the planner's own searches.  It runs with the cyclic
garbage collector off, so the program's heap size does not leak into
it.  It is the benchmark's own code, so a change to the program never
changes it.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from array import array
from typing import Sequence

SIDE = 200
SETTLE = 9000
#: Reference seconds at the nominal host speed the reports are scaled to.
NOMINAL_S = 0.015
#: Prefix of the daemon's stdout line carrying its boot's samples.
BOOT_LINE = "perfbench-reference "
INF = float("inf")


class Reference:
    def __init__(self) -> None:
        rng = random.Random(20230401)
        n = SIDE * SIDE
        # Edge weights to the right and downward neighbour of each node.
        right = array("d", (rng.uniform(1.0, 2.0) for _ in range(n)))
        down = array("d", (rng.uniform(1.0, 2.0) for _ in range(n)))
        self._indptr = array("l", [0])
        self._targets = array("l")
        self._costs = array("d")
        for u in range(n):
            r, c = divmod(u, SIDE)
            for ok, v, w in (
                (c > 0, u - 1, right[u - 1]),
                (c + 1 < SIDE, u + 1, right[u]),
                (r > 0, u - SIDE, down[u - SIDE]),
                (r + 1 < SIDE, u + SIDE, down[u]),
            ):
                if ok:
                    self._targets.append(v)
                    self._costs.append(w)
            self._indptr.append(len(self._targets))
        self._source = 0

    def run(self) -> float:
        """Seconds one reference search takes now."""
        indptr, targets, costs = self._indptr, self._targets, self._costs
        self._source = (self._source + 7919) % (len(indptr) - 1)
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        dist = {self._source: 0.0}
        heap = [(0.0, self._source)]
        done = set()
        while heap and len(done) < SETTLE:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for i in range(indptr[u], indptr[u + 1]):
                v = targets[i]
                nd = d + costs[i]
                if nd < dist.get(v, INF):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        return elapsed


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than nominal the host ran over ``samples``."""
    return statistics.median(samples) / NOMINAL_S
