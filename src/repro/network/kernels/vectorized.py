"""Vectorized CSR backend for full-scale cities.

``VectorizedKernel`` replaces the per-node heap loop of the dense
primitives (``sssp`` — single-source, multi-source and bounded — and
the ``nodes_within`` cost ball) with array-at-a-time computation over
the CSR's numpy views.  Two interchangeable execution paths implement
the same contract:

* **scipy path** (default when :mod:`scipy` is importable): the CSR
  views are wrapped zero-copy into a ``scipy.sparse.csr_matrix`` and
  handed to the compiled Dijkstra of ``scipy.sparse.csgraph`` —
  ``min_only=True`` makes multi-source a single sweep, and ``limit``
  early-terminates bounded searches with the same inclusive
  ``d <= bound`` semantics as the reference backend;
* **bucketed frontier relaxation** (pure-numpy fallback, also
  selectable with ``VectorizedKernel(use_scipy=False)`` or the
  ``REPRO_NO_SCIPY`` environment variable): every round gathers all
  out-edges of the current frontier at once, scatter-mins the candidate
  distances (a ``lexsort`` grouped minimum — see :func:`_scatter_min`),
  and the improved nodes form the next frontier.  Frontiers are
  *bucketed* delta-stepping style — only nodes within ``delta`` of the
  smallest active distance relax each round — which bounds the
  re-relaxation blow-up that plain Bellman-Ford-with-frontiers suffers
  on graphs with wide edge-cost variance (the sprawl family).

Why both paths are bit-identical to the reference heapq Dijkstra
(:class:`~repro.network.kernels.python.PythonKernel`):

* the converged distance array is the unique fixed point of
  ``dist[v] = min over edges (u, v) of dist[u] + cost(u, v)`` computed
  in float64: every algorithm that relaxes until convergence reaches
  the same doubles, because each final candidate uses the *final* value
  of ``dist[u]`` and the float ``min`` is exact.  Intermediate (larger)
  values of ``dist[u]`` produce candidates that are ``>=`` the final
  candidate for the same edge (float addition is monotonic) and never
  win the min;
* edge costs are strictly positive (``graph.py`` rejects ``cost <= 0``)
  so the reference settle order is exactly ``sorted (distance, node)``
  — which is how ordered outputs are produced here (``np.lexsort``);
* the ``settled`` / ``truncated`` counters count *nodes* (reachable
  in-bound vs. one-hop-beyond fringe), which the contract proves
  independent of relaxation order — they are recomputed from the
  converged distance array.  ``pushes`` is backend-defined (see
  ``base``): the frontier path counts frontier insertions, the scipy
  path reports the settled+fringe node count.

Early-terminating primitives (``path``, ``distance``, ``nearest``,
``query_search``, ``incremental_relax``) are inherited from the python
backend unchanged: they stop at the first qualifying settled node, an
inherently sequential condition, and they visit a sublinear slice of
the graph where batched relaxation has nothing to amortise.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

import numpy as np

from .python import BALL_SLACK, EPSILON, INF, PythonKernel

try:  # pragma: no cover - exercised via both-path equivalence tests
    from scipy.sparse import csr_matrix as _scipy_csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
except ImportError:  # pragma: no cover - scipy-less environments
    _scipy_csr_matrix = None
    _scipy_dijkstra = None

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..csr import CSRAdjacency
    from ..engine import SearchStats

#: Bucket width multiplier for the frontier fallback: ``delta`` is this
#: many mean edge costs.  Any positive value is *correct* (the fixed
#: point does not depend on the relaxation schedule); this one balances
#: round count against re-relaxation across the three city families.
_DELTA_MEAN_COSTS = 2.0


def _scipy_available() -> bool:
    return _scipy_dijkstra is not None and not os.environ.get("REPRO_NO_SCIPY")


class VectorizedKernel(PythonKernel):
    """Batched CSR relaxation for the dense search primitives."""

    name = "vectorized"

    def __init__(self, use_scipy: Optional[bool] = None) -> None:
        self._use_scipy = _scipy_available() if use_scipy is None else (
            use_scipy and _scipy_dijkstra is not None
        )

    @property
    def execution_path(self) -> str:
        """Which dense-search implementation this instance runs:
        ``"scipy"`` (compiled csgraph Dijkstra) or ``"frontier"``
        (pure-numpy bucketed relaxation)."""
        return "scipy" if self._use_scipy else "frontier"

    def sssp(
        self,
        csr: "CSRAdjacency",
        sources: Sequence[int],
        max_cost: Optional[float],
        stats: "SearchStats",
    ) -> List[float]:
        seeds = np.unique(np.asarray(list(sources), dtype=np.int64))
        stats.searches += 1
        if self._use_scipy:
            return self._sssp_scipy(csr, seeds, max_cost, stats)
        return self._sssp_frontier(csr, seeds, max_cost, stats)

    def nodes_within(
        self,
        csr: "CSRAdjacency",
        source: int,
        max_cost: float,
        stats: "SearchStats",
    ) -> List[Tuple[int, float]]:
        stats.searches += 1
        bound = max_cost + EPSILON
        if self._use_scipy:
            dist = _scipy_dijkstra(
                _as_scipy_graph(csr),
                directed=True,
                indices=np.asarray([source], dtype=np.int64),
                min_only=True,
                limit=bound,
            )
            pushes = int(np.count_nonzero(np.isfinite(dist)))
        else:
            dist = np.full(csr.num_nodes, INF)
            dist[source] = 0.0
            # The ball gates at push time: candidates beyond the bound
            # are never stored, matching the reference backend exactly
            # (costs are positive, so any prefix of an in-bound path is
            # itself in-bound — no in-bound node is lost to the gate).
            pushes = 1 + _bucketed_relax(
                csr, dist, np.asarray([source], dtype=np.int64),
                settle_bound=None, push_bound=bound,
            )
        reached = np.flatnonzero(np.isfinite(dist))
        reached = reached[reached != source]
        reached = reached[np.lexsort((reached, dist[reached]))]
        stats.settled += int(reached.size) + 1  # the source settles too
        stats.pushes += pushes
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
                # One multi-source sweep — the scipy path is a single
                # compiled csgraph call (min_only), the frontier path one
                # bucketed relaxation; both bit-identical per the sssp
                # contract.
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
        member_counts: List[int] = []
        member_nodes: List[int] = []
        member_dists: List[float] = []
        settled_out: List[int] = []
        rows = np.asarray(list(query_nodes), dtype=np.int64)
        if not rows.size:
            return member_counts, member_nodes, member_dists, settled_out
        n = csr.num_nodes
        nnf = np.asarray(list(nn_forward), dtype=np.float64)
        radius = nnf * (1.0 + BALL_SLACK)
        lab = np.asarray(list(labels), dtype=np.int64)
        cand_mask = np.asarray(list(is_candidate_stop), dtype=bool)
        if self._use_scipy:
            return self._query_rows_scipy(
                csr, rows, nnf, radius, lab, cand_mask, stats
            )
        tgt64 = csr.np_targets.astype(np.int64)
        # Balls are relaxed in chunks over the product graph (flat index
        # ``ball * n + node``) so one scatter-min serves every ball in
        # the chunk; the dense distance array is reused across chunks
        # with touched-entry reset (~32 MB ceiling).  Big chunks are the
        # whole point: the relaxation round count is the *max* ball
        # depth in the chunk, so hundreds of balls ride the same few
        # dozen scatters.  The gate is the *row's* radius (known up
        # front from the label field), and the distances come out
        # query-rooted — already in the per-query float association, so
        # there is no tight-tree pass and no replay walk here at all:
        # reach, cut, sort, emit.
        chunk = int(max(1, min(512, (32 << 20) // max(8 * n, 1), rows.size)))
        flat_dist = np.full(chunk * n, INF)
        for start in range(0, int(rows.size), chunk):
            group = rows[start : start + chunk]
            g = int(group.size)
            seeds = np.arange(g, dtype=np.int64) * n + group
            flat_dist[seeds] = 0.0
            touched = _ball_relax(
                csr, flat_dist, seeds, radius[start : start + g], tgt64, g * n
            )
            node_ids = touched % n
            ball_ids = touched // n
            d = flat_dist[touched]
            # The exact settle-order cutoff, vectorized:
            # (d, node) < (nn_forward[row], labels[row]) lexicographic.
            row_nnf = nnf[start : start + g][ball_ids]
            row_lab = lab[start : start + g][ball_ids]
            member = cand_mask[node_ids] & (
                (d < row_nnf) | ((d == row_nnf) & (node_ids < row_lab))
            )
            mi = np.flatnonzero(member)
            sel = mi[np.lexsort((node_ids[mi], d[mi], ball_ids[mi]))]
            member_counts.extend(np.bincount(ball_ids[mi], minlength=g).tolist())
            member_nodes.extend(node_ids[sel].tolist())
            member_dists.extend(d[sel].tolist())
            settled_out.extend(np.bincount(ball_ids, minlength=g).tolist())
            stats.searches += g
            # Reached-node counts: the gated fixed point's node sets are
            # schedule-independent, so these match the reference backend
            # and any chunking (pushes is backend-defined; the reached
            # count is this backend's work measure).
            stats.settled += int(touched.size)
            stats.pushes += int(touched.size)
            flat_dist[touched] = INF
        return member_counts, member_nodes, member_dists, settled_out

    def _query_rows_scipy(
        self,
        csr: "CSRAdjacency",
        rows: np.ndarray,
        nnf: np.ndarray,
        radius: np.ndarray,
        lab: np.ndarray,
        cand_mask: np.ndarray,
        stats: "SearchStats",
    ) -> Tuple[List[int], List[int], List[float], List[int]]:
        """Query-rooted balls on the compiled csgraph Dijkstra.

        scipy's ``limit`` is a single scalar per call, so rows are
        processed in **radius-sorted chunks**: within a chunk the
        shared limit is the chunk's max radius, which sorting keeps
        within a whisker of each row's own — near-zero wasted
        exploration, all of it at C speed.  Per row, the gated reached
        set equals ``{x : d(q, x) <= radius}`` exactly (any in-bound
        shortest path's prefixes are in-bound, any out-of-bound node
        only sees out-of-bound tentative distances), so masking the
        dense rows at each row's own radius reproduces the frontier
        path's reach sets and counters bit-for-bit; the distances are
        the same converged fixed point.  The member stream is then
        scattered back from sorted-row order to input-row order with
        one O(members) offset map — no extra sort."""
        n = csr.num_nodes
        graph = _as_scipy_graph(csr)
        m = int(rows.size)
        order = np.argsort(radius, kind="stable")
        counts_sorted = np.empty(m, dtype=np.int64)
        settled_sorted = np.empty(m, dtype=np.int64)
        node_parts: List[np.ndarray] = []
        dist_parts: List[np.ndarray] = []
        node_col = np.arange(n, dtype=np.int64)[None, :]
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

    # -- the two sssp execution paths ----------------------------------

    def _sssp_scipy(
        self,
        csr: "CSRAdjacency",
        seeds: np.ndarray,
        max_cost: Optional[float],
        stats: "SearchStats",
    ) -> List[float]:
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
            edge_idx = _edge_indices(csr.np_indptr, within)[0]
            tgt = csr.np_targets[edge_idx]
            fringe = np.unique(tgt[~np.isfinite(dist[tgt])])
            stats.truncated += int(fringe.size)
            stats.pushes += settled + int(fringe.size)
        else:
            stats.pushes += settled
        return dist.tolist()

    def _sssp_frontier(
        self,
        csr: "CSRAdjacency",
        seeds: np.ndarray,
        max_cost: Optional[float],
        stats: "SearchStats",
    ) -> List[float]:
        dist = np.full(csr.num_nodes, INF)
        dist[seeds] = 0.0
        pushes = int(seeds.size)
        if not (max_cost is not None and max_cost < 0.0):
            pushes += _bucketed_relax(
                csr, dist, seeds, settle_bound=max_cost, push_bound=None
            )
        finite = np.isfinite(dist)
        if max_cost is not None:
            within = dist <= max_cost
            stats.settled += int(np.count_nonzero(within))
            stats.truncated += int(np.count_nonzero(finite & ~within))
            dist[~within] = INF
        else:
            stats.settled += int(np.count_nonzero(finite))
        stats.pushes += pushes
        return dist.tolist()


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


def _ball_relax(
    csr: "CSRAdjacency",
    flat_dist: np.ndarray,
    seeds: np.ndarray,
    row_bound: np.ndarray,
    tgt64: np.ndarray,
    size: int,
) -> np.ndarray:
    """Relax a chunk of pruned balls to convergence over the product
    graph (flat index ``ball * n + node``), gating candidates before
    the scatter at ``cand <= row_bound[ball]`` (the per-row radius of
    ``batch_query_rows``' query-rooted balls).

    Runs near/far-pile delta-stepping: the near pile (entries under the
    current distance threshold) is relaxed to exhaustion with one big
    scatter per round, improvements past the threshold park in the far
    pile, then the threshold advances.  Plain whole-frontier Bellman-
    Ford layers re-improve every entry ~15x on road costs before
    converging; near-ordered expansion keeps re-improvements close to
    Dijkstra's none while staying fully vectorized.  The gated fixed
    point itself is schedule-independent, so any pile discipline yields
    the same doubles.  Returns the sorted flat indices reached (the
    balls' node sets, seeds included)."""
    indptr, costs = csr.np_indptr, csr.np_costs
    n = csr.num_nodes
    delta = _DELTA_MEAN_COSTS * float(costs.mean()) if costs.size else 1.0
    thresh = delta
    near = seeds
    far_parts: List[np.ndarray] = []
    while True:
        while near.size:
            nodes = near % n
            balls = near // n
            edge_idx, degs = _edge_indices(indptr, nodes)
            x = tgt64[edge_idx]
            cand = np.repeat(flat_dist[near], degs) + costs[edge_idx]
            flat_x = np.repeat(balls, degs) * n + x
            limit = np.repeat(row_bound[balls], degs)
            # Pre-filter before the scatter: the goal gate plus a cheap
            # improvement test drops most edge relaxations outright.
            keep = (cand <= limit) & (cand < flat_dist[flat_x])
            fx = flat_x[keep]
            fc = cand[keep]
            # `ufunc.at` grew an indexed fast path in modern numpy that
            # beats the sort-based _scatter_min by ~50x at these sizes;
            # the group minimum is still an exact float min.  The
            # improved set is recovered exactly by equality against the
            # written value — every improved target has a kept
            # candidate equal to its new distance (rare exact ties
            # duplicate an entry, whose re-expansion then fails the
            # ``<`` pre-filter).
            np.minimum.at(flat_dist, fx, fc)
            win = flat_dist[fx] == fc
            w = fx[win]
            is_near = fc[win] < thresh
            near = w[is_near]
            if not is_near.all():
                far_parts.append(w[~is_near])
        if not far_parts:
            break
        far = np.unique(np.concatenate(far_parts))
        far_parts = []
        # Entries re-improved below the old threshold re-entered the
        # near pile and were expanded at their final distance already;
        # their parked copies are stale and drop out here.
        far = far[flat_dist[far] >= thresh]
        if not far.size:
            break
        thresh = float(flat_dist[far].min()) + delta
        is_near = flat_dist[far] < thresh
        near = far[is_near]
        if not is_near.all():
            far_parts.append(far[~is_near])
    return np.flatnonzero(np.isfinite(flat_dist[:size]))


def _as_scipy_graph(csr: "CSRAdjacency") -> Any:
    """Wrap the CSR's numpy views into a scipy matrix, zero-copy."""
    n = csr.num_nodes
    return _scipy_csr_matrix(
        (csr.np_costs, csr.np_targets, csr.np_indptr), shape=(n, n), copy=False
    )


def _bucketed_relax(
    csr: "CSRAdjacency",
    dist: np.ndarray,
    seeds: np.ndarray,
    settle_bound: Optional[float],
    push_bound: Optional[float],
) -> int:
    """Relax ``dist`` to convergence from ``seeds`` with delta-stepping
    buckets; returns the number of frontier insertions (``pushes``).

    ``settle_bound`` reproduces bounded-``sssp`` semantics (improved
    nodes beyond the bound keep their fringe distance but never relax);
    ``push_bound`` reproduces the ``nodes_within`` push gate (candidates
    beyond the bound are dropped before the scatter).

    Each outer round picks ``thresh = min(active dists) + delta`` and
    relaxes only active nodes at or under ``thresh`` until none remain,
    exactly like a delta-stepping bucket: nodes farther out wait, so a
    node is (re)relaxed only when its distance is already near-final.
    Any schedule converges to the same doubles — bucketing is purely a
    work bound, not a correctness device.
    """
    indptr, targets, costs = csr.np_indptr, csr.np_targets, csr.np_costs
    delta = _DELTA_MEAN_COSTS * float(costs.mean()) if costs.size else 1.0
    active = np.zeros(dist.shape[0], dtype=bool)
    active[seeds] = True
    pushes = 0
    while True:
        idx = np.flatnonzero(active)
        if not idx.size:
            return pushes
        thresh = float(dist[idx].min()) + delta
        cur = idx[dist[idx] <= thresh]
        while cur.size:
            active[cur] = False
            tgt, cand = _relax_edges(indptr, targets, costs, dist, cur)
            if push_bound is not None:
                keep = cand <= push_bound
                tgt, cand = tgt[keep], cand[keep]
            winners = _scatter_min(dist, tgt, cand)
            if settle_bound is not None:
                winners = winners[dist[winners] <= settle_bound]
            pushes += int(winners.size)
            active[winners] = True
            cur = winners[dist[winners] <= thresh]


def _edge_indices(
    indptr: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat CSR edge indices of all out-edges of ``frontier`` (and the
    per-node out-degrees, for repeating source-aligned values)."""
    starts = indptr[frontier]
    degs = indptr[frontier + 1] - starts
    excl = np.cumsum(degs) - degs
    edge_idx = np.repeat(starts - excl, degs) + np.arange(int(degs.sum()))
    return edge_idx, degs


def _relax_edges(
    indptr: np.ndarray,
    targets: np.ndarray,
    costs: np.ndarray,
    dist: np.ndarray,
    frontier: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather all out-edges of ``frontier`` as flat ``(tgt, cand)``
    arrays, where ``cand[i] = dist[edge source] + edge cost``."""
    edge_idx, degs = _edge_indices(indptr, frontier)
    return targets[edge_idx], np.repeat(dist[frontier], degs) + costs[edge_idx]


def _scatter_min(
    dist: np.ndarray, tgt: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Scatter ``dist[tgt] = min(dist[tgt], cand)`` group-wise and
    return the (sorted, unique) targets that improved — the next
    frontier.

    Implemented as a ``lexsort`` by ``(tgt, cand)`` plus a first-of-
    group mask rather than ``np.minimum.at``: the buffered ``ufunc.at``
    path is an order of magnitude slower than a C sort at the edge
    counts a city-scale frontier produces.  The group minimum is still
    an *exact* float ``min`` (lexsort places the smallest candidate
    first in each target group), so the converged distances are
    bit-identical either way."""
    if not tgt.size:
        return tgt[:0]
    order = np.lexsort((cand, tgt))
    tgt_s = tgt[order]
    cand_s = cand[order]
    first = np.empty(tgt_s.size, dtype=bool)
    first[0] = True
    np.not_equal(tgt_s[1:], tgt_s[:-1], out=first[1:])
    best_tgt = tgt_s[first]
    best_cand = cand_s[first]
    improved = best_cand < dist[best_tgt]
    winners = best_tgt[improved]
    dist[winners] = best_cand[improved]
    return winners
