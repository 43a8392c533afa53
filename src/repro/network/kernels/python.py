"""The reference backend: pure-Python ``heapq`` Dijkstra loops.

The loops iterate the CSR snapshot's *list* views positionally —
plain list indexing is the fastest per-element access CPython offers,
and it keeps every distance a native ``float`` (indexing the numpy
views instead would box ``np.float64`` scalars into the heap and the
results, ~3-5x slower and type-leaky).  Both backends read the same
single :class:`~repro.network.csr.CSRAdjacency` build; see its
docstring.

This backend *defines* the relaxation-order contract of
:class:`~repro.network.kernels.base.SearchKernel`: the vectorized
backend (and any future one) must match it bit for bit.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

import numpy as np

from ...exceptions import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..csr import CSRAdjacency
    from ..engine import SearchStats

INF = math.inf

#: Tolerance for the cost-ball bound of ``nodes_within`` (matches the
#: engine's historical epsilon; part of the cross-backend contract).
EPSILON = 1e-9

#: Relative slack on the push gate of ``batch_query_rows``: ball ``i``
#: keeps node ``x`` while ``d(q, x) <= nn_forward[i] * (1 + BALL_SLACK)``.
#: The exact settle-order cutoff decides membership; the slack only
#: widens the reached set (and so the ``settled`` counts), which is why
#: it is part of the cross-backend contract.
BALL_SLACK = 1e-9


class PythonKernel:
    """Cache-free, stats-accounted heapq Dijkstra family over a CSR."""

    name = "python"

    def sssp(
        self,
        csr: "CSRAdjacency",
        sources: Sequence[int],
        stats: "SearchStats",
    ) -> List[float]:
        indptr, targets, costs = csr.indptr, csr.targets, csr.costs
        n = csr.num_nodes
        dist = [INF] * n
        heap: List[Tuple[float, int]] = []
        for s in sources:
            if dist[s] > 0.0:
                dist[s] = 0.0
                heap.append((0.0, s))
        heapq.heapify(heap)
        stats.searches += 1
        pushes = len(heap)
        settled = 0
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            settled += 1
            for i in range(indptr[u], indptr[u + 1]):
                v = targets[i]
                nd = d + costs[i]
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
                    pushes += 1
        stats.settled += settled
        stats.pushes += pushes
        return dist

    def path(
        self,
        csr: "CSRAdjacency",
        source: int,
        target: int,
        stats: "SearchStats",
    ) -> Tuple[List[int], float]:
        indptr, targets, costs = csr.indptr, csr.targets, csr.costs
        n = csr.num_nodes
        dist = [INF] * n
        parent = [-1] * n
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        stats.searches += 1
        stats.pushes += 1
        settled = 0
        pushes = 0
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            settled += 1
            if u == target:
                break
            for i in range(indptr[u], indptr[u + 1]):
                v = targets[i]
                nd = d + costs[i]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
                    pushes += 1
        stats.settled += settled
        stats.pushes += pushes
        if dist[target] == INF:
            raise GraphError(f"node {target} unreachable from {source}")
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path, dist[target]

    def distance(
        self,
        csr: "CSRAdjacency",
        source: int,
        target: int,
        stats: "SearchStats",
    ) -> float:
        indptr, targets, costs = csr.indptr, csr.targets, csr.costs
        dist: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        stats.searches += 1
        stats.pushes += 1
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, INF):
                continue
            stats.settled += 1
            if u == target:
                return d
            for i in range(indptr[u], indptr[u + 1]):
                v = targets[i]
                nd = d + costs[i]
                if nd < dist.get(v, INF):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
                    stats.pushes += 1
        return INF

    def query_search(
        self,
        csr: "CSRAdjacency",
        query_node: int,
        is_existing_stop: Sequence[bool],
        is_candidate_stop: Sequence[bool],
        stats: "SearchStats",
    ) -> Tuple[int, float, List[Tuple[int, float]]]:
        indptr, targets, costs = csr.indptr, csr.targets, csr.costs
        dist: Dict[int, float] = {query_node: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, query_node)]
        visited_candidates: List[Tuple[int, float]] = []
        settled: Set[int] = set()
        stats.searches += 1
        stats.pushes += 1
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            stats.settled += 1
            if is_existing_stop[u]:
                return u, d, visited_candidates
            if is_candidate_stop[u]:
                visited_candidates.append((u, d))
            for i in range(indptr[u], indptr[u + 1]):
                v = targets[i]
                nd = d + costs[i]
                if nd < dist.get(v, INF):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
                    stats.pushes += 1
        raise GraphError(
            f"no existing bus stop reachable from query node {query_node}"
        )

    def nodes_within(
        self,
        csr: "CSRAdjacency",
        source: int,
        radius: float,
        stats: "SearchStats",
    ) -> List[Tuple[int, float]]:
        indptr, targets, costs = csr.indptr, csr.targets, csr.costs
        dist: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        result: List[Tuple[int, float]] = []
        settled: Set[int] = set()
        stats.searches += 1
        stats.pushes += 1
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            stats.settled += 1
            if u != source:
                result.append((u, d))
            for i in range(indptr[u], indptr[u + 1]):
                v = targets[i]
                nd = d + costs[i]
                if nd <= radius + EPSILON and nd < dist.get(v, INF):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
                    stats.pushes += 1
        return result

    def multi_source_labels(
        self,
        csr: "CSRAdjacency",
        sources: Sequence[int],
        stats: "SearchStats",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        source_list = sorted(set(sources))
        dist = self.sssp(csr, source_list, stats)
        indptr, targets, costs = csr.indptr, csr.targets, csr.costs
        n = csr.num_nodes
        label = [-1] * n
        pred = [-1] * n
        step = [0.0] * n
        for s in source_list:
            label[s] = s
        # Pure post-pass: process reachable nodes in settle order
        # (distance, id); every tight predecessor settles strictly
        # earlier (positive costs), so its label is final when read, and
        # the minimum over tight in-edges is the lexicographically
        # smallest source over tight shortest paths — by induction on
        # the (acyclic) tight-edge DAG.  The same tight-edge test picks
        # the canonical predecessor: the smallest (dist[u], u).
        order = sorted(
            (dist[v], v) for v in range(n) if dist[v] < INF and label[v] < 0
        )
        for d, v in order:
            best = -1
            parent = -1
            for i in range(indptr[v], indptr[v + 1]):
                u = targets[i]
                du = dist[u]
                # The graph is undirected (class invariant of
                # RoadNetwork), so v's out-edges are exactly its
                # in-edges with the same cost.
                if du < d and du + costs[i] <= d:
                    lu = label[u]
                    if lu >= 0 and (best < 0 or lu < best):
                        best = lu
                    if parent < 0 or (du, u) < (dist[parent], parent):
                        parent = u
                        step[v] = costs[i]
            label[v] = best
            pred[v] = parent
        return (
            np.array(dist, dtype=np.float64),
            np.array(label, dtype=np.int64),
            np.array(pred, dtype=np.int64),
            np.array(step, dtype=np.float64),
        )

    def batch_query_rows(
        self,
        csr: "CSRAdjacency",
        query_nodes: Sequence[int],
        nn_forward: Sequence[float],
        labels: Sequence[int],
        is_candidate_stop: Sequence[bool],
        stats: "SearchStats",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        indptr, targets, costs = csr.indptr, csr.targets, csr.costs
        member_counts: List[int] = []
        member_nodes: List[int] = []
        member_dists: List[float] = []
        settled_out: List[int] = []
        for i, q in enumerate(query_nodes):
            stats.searches += 1
            radius = nn_forward[i]
            bound = radius * (1.0 + BALL_SLACK)
            nn_stop = labels[i]
            dist: Dict[int, float] = {q: 0.0}
            heap: List[Tuple[float, int]] = [(0.0, q)]
            pushes = 1
            settled: Set[int] = set()
            count = 0
            while heap:
                d, u = heapq.heappop(heap)
                if u in settled:
                    continue
                settled.add(u)
                # Settle order is (d, u), so members come out exactly in
                # the per-query visit order; the cutoff is the settle
                # position of the query's nearest existing stop.
                if is_candidate_stop[u] and (d, u) < (radius, nn_stop):
                    member_nodes.append(u)
                    member_dists.append(d)
                    count += 1
                for j in range(indptr[u], indptr[u + 1]):
                    x = targets[j]
                    nd = d + costs[j]
                    # Push gate at the row's radius: nothing past the
                    # query's own nearest stop can precede it in settle
                    # order, so dropping it loses nothing.
                    if nd <= bound and nd < dist.get(x, INF):
                        dist[x] = nd
                        heapq.heappush(heap, (nd, x))
                        pushes += 1
            member_counts.append(count)
            settled_out.append(len(settled))
            stats.settled += len(settled)
            stats.pushes += pushes
        return (
            np.array(member_counts, dtype=np.int64),
            np.array(member_nodes, dtype=np.int64),
            np.array(member_dists, dtype=np.float64),
            np.array(settled_out, dtype=np.int64),
        )
