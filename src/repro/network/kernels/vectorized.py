"""Vectorized CSR backend for full-scale cities.

``VectorizedKernel`` replaces the per-node heap loop of the dense
primitives (``sssp`` — single-source, multi-source and bounded — the
``nodes_within`` cost ball and the batched query-rooted balls) with
array-at-a-time computation over the CSR's numpy views: the views are
wrapped zero-copy into a ``scipy.sparse.csr_matrix`` and handed to the
compiled Dijkstra of ``scipy.sparse.csgraph`` — ``min_only=True``
makes multi-source a single sweep, and ``limit`` early-terminates
bounded searches with the same inclusive ``d <= bound`` semantics as
the reference backend.

Why the results are bit-identical to the reference heapq Dijkstra
(:class:`~repro.network.kernels.python.PythonKernel`):

* the converged distance array is the unique fixed point of
  ``dist[v] = min over edges (u, v) of dist[u] + cost(u, v)`` computed
  in float64: every algorithm that relaxes until convergence reaches
  the same doubles, because each final candidate uses the *final* value
  of ``dist[u]`` and the float ``min`` is exact.  Intermediate (larger)
  values of ``dist[u]`` produce candidates that are ``>=`` the final
  candidate for the same edge (float addition is monotonic) and never
  win the min;
* edge costs are strictly positive and finite (``graph.py`` rejects
  anything else) so the reference settle order is exactly ``sorted
  (distance, node)`` — which is how ordered outputs are produced here
  (``np.lexsort``);
* the ``settled`` / ``truncated`` counters count *nodes* (reachable
  in-bound vs. one-hop-beyond fringe), which the contract proves
  independent of relaxation order — they are recomputed from the
  converged distance array.  ``pushes`` is backend-defined (see
  ``base``): this backend reports the settled+fringe node count.

Early-terminating primitives (``path``, ``distance``, ``nearest``,
``query_search``, ``incremental_relax``) are inherited from the python
backend unchanged: they stop at the first qualifying settled node, an
inherently sequential condition, and they visit a sublinear slice of
the graph where batched relaxation has nothing to amortise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from .python import BALL_SLACK, EPSILON, INF, PythonKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..csr import CSRAdjacency
    from ..engine import SearchStats


class VectorizedKernel(PythonKernel):
    """Batched CSR relaxation for the dense search primitives."""

    name = "vectorized"

    def sssp(
        self,
        csr: "CSRAdjacency",
        sources: Sequence[int],
        max_cost: Optional[float],
        stats: "SearchStats",
    ) -> List[float]:
        seeds = np.unique(np.asarray(list(sources), dtype=np.int64))
        stats.searches += 1
        n = csr.num_nodes
        if max_cost is not None and max_cost < 0.0:
            # Reference semantics: every seed pops beyond the bound and
            # truncates; the final sweep masks the whole row to INF.
            stats.truncated += int(seeds.size)
            stats.pushes += int(seeds.size)
            return [INF] * n
        dist = _scipy_dijkstra(
            _as_scipy_graph(csr),
            directed=True,
            indices=seeds,
            min_only=True,
            limit=np.inf if max_cost is None else max_cost,
        )
        within = np.flatnonzero(np.isfinite(dist))
        settled = int(within.size)
        stats.settled += settled
        if max_cost is not None:
            # The truncated fringe: nodes one relaxation beyond the
            # in-bound set (the reference pushes them, pops them once
            # beyond the bound, and counts them without expanding).
            edge_idx = _edge_indices(csr.np_indptr, within)
            tgt = csr.np_targets[edge_idx]
            fringe = np.unique(tgt[~np.isfinite(dist[tgt])])
            stats.truncated += int(fringe.size)
            stats.pushes += settled + int(fringe.size)
        else:
            stats.pushes += settled
        return dist.tolist()

    def nodes_within(
        self,
        csr: "CSRAdjacency",
        source: int,
        max_cost: float,
        stats: "SearchStats",
    ) -> List[Tuple[int, float]]:
        stats.searches += 1
        dist = _scipy_dijkstra(
            _as_scipy_graph(csr),
            directed=True,
            indices=np.asarray([source], dtype=np.int64),
            min_only=True,
            limit=max_cost + EPSILON,
        )
        reached = np.flatnonzero(np.isfinite(dist))
        stats.pushes += int(reached.size)
        reached = reached[reached != source]
        reached = reached[np.lexsort((reached, dist[reached]))]
        stats.settled += int(reached.size) + 1  # the source settles too
        return list(zip(reached.tolist(), dist[reached].tolist()))

    # -- inverted-preprocessing primitives -----------------------------

    def multi_source_labels(
        self,
        csr: "CSRAdjacency",
        sources: Sequence[int],
        stats: "SearchStats",
        distance: Optional[List[float]] = None,
    ) -> Tuple[List[float], List[int]]:
        source_list = sorted(set(sources))
        if distance is None:
            if source_list:
                # One multi-source sweep: a single compiled csgraph call
                # (min_only), bit-identical per the sssp contract.
                distance = self.sssp(csr, source_list, None, stats)
            else:
                stats.searches += 1  # the reference empty-heap search
                distance = [INF] * csr.num_nodes
        return distance, _derive_labels(csr, distance, source_list)

    def forward_replay(
        self,
        csr: "CSRAdjacency",
        distance: Sequence[float],
        targets: Sequence[int],
        stats: "SearchStats",
    ) -> List[float]:
        nodes = np.asarray(list(targets), dtype=np.int64)
        if not nodes.size:
            return []
        dist = np.asarray(distance, dtype=np.float64)
        pred, step = _tight_predecessors(csr, dist)
        reachable = np.isfinite(dist[nodes])
        acc = np.zeros(nodes.size)
        cur = nodes.copy()
        active = reachable & (dist[nodes] > 0.0)
        # All walks step toward their source simultaneously; each round
        # performs the same scalar addition the reference walk performs
        # at that depth, so the accumulated floats are identical.
        while True:
            idx = np.flatnonzero(active)
            if not idx.size:
                break
            here = cur[idx]
            acc[idx] += step[here]
            nxt = pred[here]
            cur[idx] = nxt
            active[idx] = dist[nxt] > 0.0
        out = np.where(reachable, acc, INF)
        return out.tolist()

    def batch_query_rows(
        self,
        csr: "CSRAdjacency",
        query_nodes: Sequence[int],
        nn_forward: Sequence[float],
        labels: Sequence[int],
        is_candidate_stop: Sequence[bool],
        stats: "SearchStats",
    ) -> Tuple[List[int], List[int], List[float], List[int]]:
        """Query-rooted balls on the compiled csgraph Dijkstra.

        scipy's ``limit`` is a single scalar per call, so rows are
        processed in **radius-sorted chunks**: within a chunk the
        shared limit is the chunk's max radius, which sorting keeps
        within a whisker of each row's own.  Per row, the gated reached
        set equals ``{x : d(q, x) <= radius}`` exactly (any in-bound
        shortest path's prefixes are in-bound, any out-of-bound node
        only sees out-of-bound tentative distances), so masking the
        dense rows at each row's own radius reproduces the reference
        reach sets and counters bit-for-bit; the distances are the same
        converged fixed point, already query-rooted (no replay walk).
        The member stream is then scattered back from sorted-row order
        to input-row order with one O(members) offset map — no extra
        sort."""
        rows = np.asarray(list(query_nodes), dtype=np.int64)
        m = int(rows.size)
        if not m:
            return [], [], [], []
        n = csr.num_nodes
        nnf = np.asarray(list(nn_forward), dtype=np.float64)
        radius = nnf * (1.0 + BALL_SLACK)
        lab = np.asarray(list(labels), dtype=np.int64)
        cand_mask = np.asarray(list(is_candidate_stop), dtype=bool)
        graph = _as_scipy_graph(csr)
        order = np.argsort(radius, kind="stable")
        counts_sorted = np.empty(m, dtype=np.int64)
        settled_sorted = np.empty(m, dtype=np.int64)
        node_parts: List[np.ndarray] = []
        dist_parts: List[np.ndarray] = []
        node_col = np.arange(n, dtype=np.int64)[None, :]
        # Dense (chunk x n) rows, capped near 32 MB per chunk.
        chunk = int(max(1, min(512, (32 << 20) // max(8 * n, 1), m)))
        for start in range(0, m, chunk):
            sel = order[start : start + chunk]
            g = int(sel.size)
            r = radius[sel]
            d = _scipy_dijkstra(
                graph,
                directed=True,
                indices=rows[sel],
                min_only=False,
                limit=float(r[g - 1]),
            )
            reach = (d <= r[:, None]) & np.isfinite(d)
            reach_counts = np.count_nonzero(reach, axis=1)
            settled_sorted[start : start + g] = reach_counts
            # The exact settle-order cutoff, vectorized:
            # (d, node) < (nn_forward[row], labels[row]) lexicographic.
            member = cand_mask[None, :] & (
                (d < nnf[sel][:, None])
                | ((d == nnf[sel][:, None]) & (node_col < lab[sel][:, None]))
            )
            li, node = np.nonzero(member)
            dm = d[li, node]
            o = np.lexsort((node, dm, li))
            counts_sorted[start : start + g] = np.bincount(li, minlength=g)
            node_parts.append(node[o])
            dist_parts.append(dm[o])
            stats.searches += g
            # Reached-node counts: the gated node sets are
            # schedule-independent, so these match the reference
            # backend and any chunking (pushes is backend-defined; the
            # reached count is this backend's work measure).
            reached = int(reach_counts.sum())
            stats.settled += reached
            stats.pushes += reached
        counts = np.empty(m, dtype=np.int64)
        counts[order] = counts_sorted
        settled = np.empty(m, dtype=np.int64)
        settled[order] = settled_sorted
        stream_nodes = np.concatenate(node_parts)
        stream_dists = np.concatenate(dist_parts)
        # Scatter each sorted-order row's member run to its offset in
        # the input-order columns (exclusive-cumsum offset arithmetic,
        # the same trick as _edge_indices).
        out_start = np.cumsum(counts) - counts
        excl = np.cumsum(counts_sorted) - counts_sorted
        positions = np.repeat(out_start[order] - excl, counts_sorted) + np.arange(
            stream_nodes.size, dtype=np.int64
        )
        out_nodes = np.empty_like(stream_nodes)
        out_nodes[positions] = stream_nodes
        out_dists = np.empty_like(stream_dists)
        out_dists[positions] = stream_dists
        return (
            counts.tolist(),
            out_nodes.tolist(),
            out_dists.tolist(),
            settled.tolist(),
        )


def _tight_edges(
    csr: "CSRAdjacency", dist: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All tight arcs ``(u, v)`` of a converged ``dist`` field — the
    canonical shortest-path DAG — as ``(u, v, cost)`` arrays.  An arc is
    tight when ``dist[u] < dist[v]`` and ``dist[u] + cost <= dist[v]``
    (the ``<=`` is an exact equality test at the fixed point, where
    every candidate is ``>=`` the minimum)."""
    indptr, targets, costs = csr.np_indptr, csr.np_targets, csr.np_costs
    n = csr.num_nodes
    u = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    v = targets.astype(np.int64)
    du = dist[u]
    dv = dist[v]
    mask = np.isfinite(du) & np.isfinite(dv) & (du < dv) & (du + costs <= dv)
    return u[mask], v[mask], costs[mask]


def _derive_labels(
    csr: "CSRAdjacency", distance: Sequence[float], sources: Sequence[int]
) -> List[int]:
    """The lexicographic-min source label of every node over the tight
    DAG of ``distance`` — iterative scatter-min label propagation (the
    DAG is acyclic in strictly increasing distance, so the fixed point
    is unique and equals the reference backend's one-pass derivation)."""
    n = csr.num_nodes
    dist = np.asarray(distance, dtype=np.float64)
    label = np.full(n, n, dtype=np.int64)
    if sources:
        src = np.asarray(list(sources), dtype=np.int64)
        label[src] = src
    tu, tv, _ = _tight_edges(csr, dist)
    if tu.size:
        order = np.argsort(tv, kind="stable")
        tu = tu[order]
        tv = tv[order]
        heads = np.flatnonzero(
            np.concatenate((np.ones(1, dtype=bool), tv[1:] != tv[:-1]))
        )
        groups = tv[heads]
        while True:
            mins = np.minimum.reduceat(label[tu], heads)
            upd = mins < label[groups]
            if not bool(upd.any()):
                break
            label[groups[upd]] = mins[upd]
    return np.where(label == n, -1, label).tolist()


def _tight_predecessors(
    csr: "CSRAdjacency", dist: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical predecessor of every reachable non-source node — the
    tight in-neighbour minimising ``(dist[u], u)`` — and the cost of
    that arc, as dense arrays (``-1`` / ``0.0`` where undefined)."""
    n = csr.num_nodes
    tu, tv, tc = _tight_edges(csr, dist)
    pred = np.full(n, -1, dtype=np.int64)
    step = np.zeros(n)
    if tu.size:
        order = np.lexsort((tu, dist[tu], tv))
        tv_s = tv[order]
        first = np.concatenate((np.ones(1, dtype=bool), tv_s[1:] != tv_s[:-1]))
        pred[tv_s[first]] = tu[order][first]
        step[tv_s[first]] = tc[order][first]
    return pred, step


def _as_scipy_graph(csr: "CSRAdjacency") -> Any:
    """Wrap the CSR's numpy views into a scipy matrix, zero-copy."""
    n = csr.num_nodes
    return _scipy_csr_matrix(
        (csr.np_costs, csr.np_targets, csr.np_indptr), shape=(n, n), copy=False
    )


def _edge_indices(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Flat CSR edge indices of all out-edges of ``frontier``."""
    starts = indptr[frontier]
    degs = indptr[frontier + 1] - starts
    excl = np.cumsum(degs) - degs
    return np.repeat(starts - excl, degs) + np.arange(int(degs.sum()))
