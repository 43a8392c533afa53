"""Vectorized CSR backend, the default search kernel.

``VectorizedKernel`` replaces the per-node heap loop of the dense
primitives (``sssp`` — single- and multi-source — the label field, the
``nodes_within`` cost ball and the batched query-rooted balls) with
array-at-a-time computation over the CSR's numpy views: the views are
wrapped zero-copy into a ``scipy.sparse.csr_matrix`` and handed to the
compiled Dijkstra of ``scipy.sparse.csgraph`` — ``min_only=True``
makes multi-source a single sweep, and ``limit`` early-terminates
the balls with the same inclusive ``d <= bound`` semantics as the
reference backend.

The query-rooted balls of Algorithm 2 are **tile-local**: rows are
grouped by a spatial tile of their query node, and each group runs one
dense csgraph call on the subgraph induced by the union of its balls,
so the cost per row follows the size of that union, not ``|V|`` (see
:meth:`VectorizedKernel.batch_query_rows` for why this is exact).

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
* the ``settled`` counter counts *nodes* (the reached set), which the
  contract proves independent of relaxation order — it is recomputed
  from the converged distance array.  ``pushes`` is backend-defined
  (see ``base``): this backend reports the reached-node count.

The early-terminating primitives (``path``, ``distance``,
``query_search``) are inherited from the python backend unchanged: they
stop at the first qualifying settled node, an inherently sequential
condition, and they visit a sublinear slice of the graph where batched
relaxation has nothing to amortise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence, Tuple

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
        stats: "SearchStats",
    ) -> List[float]:
        return _sweep(csr, sources, stats).tolist()

    def nodes_within(
        self,
        csr: "CSRAdjacency",
        source: int,
        radius: float,
        stats: "SearchStats",
    ) -> List[Tuple[int, float]]:
        stats.searches += 1
        dist = _scipy_dijkstra(
            _as_scipy_graph(csr),
            directed=True,
            indices=np.asarray([source], dtype=np.int64),
            min_only=True,
            limit=radius + EPSILON,
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
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        source_list = sorted(set(sources))
        if source_list:
            # One multi-source sweep: a single compiled csgraph call
            # (min_only), bit-identical per the sssp contract.
            distance = _sweep(csr, source_list, stats)
        else:
            stats.searches += 1  # the reference empty-heap search
            distance = np.full(csr.num_nodes, INF)
        tight = _tight_edges(csr, distance)
        pred, step = _tight_predecessors(csr.num_nodes, distance, tight)
        label = _derive_labels(csr.num_nodes, tight, source_list)
        return distance, label, pred, step

    def batch_query_rows(
        self,
        csr: "CSRAdjacency",
        query_nodes: Sequence[int],
        nn_forward: Sequence[float],
        labels: Sequence[int],
        is_candidate_stop: Sequence[bool],
        stats: "SearchStats",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Query-rooted balls as **tile-local** dense csgraph calls.

        Rows are grouped by the :data:`TILE_SIDE` square tile holding
        their query node, radius-sorted within a tile.  For each group
        one bounded ``min_only`` sweep at the group's largest push gate
        ``R`` takes the union ball ``U`` of its rows — a scheduling
        step that adds nothing to ``searches``/``settled`` — and one
        dense csgraph call then runs from the group's rows on the
        subgraph induced by ``U``, so a row costs ``O(|U|)`` instead of
        ``O(|V|)``.  A group whose rows × ``|U|``
        block exceeds :data:`CELL_BUDGET` is split in two by radius and
        retried.

        Why this is exact: every in-bound shortest path from ``q`` has
        in-bound prefixes (costs are positive, and float addition of a
        positive cost never decreases a sum), so ``ball(q)`` *and* the
        shortest paths into it lie inside ``U``.  Distances on the
        induced subgraph are minima over fewer paths, so they are never
        below the full-graph distances, and they are equal — the same
        doubles, from the same left-folded path sums — on ``ball(q)``.
        Per row, the reached set ``{x : d(q, x) <= gate}``, the members
        cut at ``(d, node) < (nn_forward, label)`` on global ids, their
        ``(d, node)`` order and the counters therefore match the
        reference backend bit for bit.  The member streams are
        scattered back to input-row order with offset arithmetic, with
        no per-row python loop."""
        rows = np.asarray(list(query_nodes), dtype=np.int64)
        m = int(rows.size)
        if not m:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0), empty
        nnf = np.asarray(list(nn_forward), dtype=np.float64)
        # The reference push gate, clamped to the largest double so that
        # ``d <= gate`` never admits an unreachable (inf) entry.
        gate = np.minimum(nnf * (1.0 + BALL_SLACK), _MAX_DOUBLE)
        lab = np.asarray(list(labels), dtype=np.int64)
        cand = np.asarray(list(is_candidate_stop), dtype=bool)
        graph = _as_scipy_graph(csr)
        # Global -> union-ball node id; reset to -1 after every group.
        local = np.full(csr.num_nodes, -1, dtype=np.int64)
        row_parts: List[np.ndarray] = []
        count_parts: List[np.ndarray] = []
        reach_parts: List[np.ndarray] = []
        node_parts: List[np.ndarray] = []
        dist_parts: List[np.ndarray] = []
        pending = _tile_groups(csr.np_coords[rows], gate)
        while pending:
            sel = pending.pop()
            g = int(sel.size)
            limit = float(gate[sel[-1]])  # radius-sorted: the group max
            sweep = _scipy_dijkstra(
                graph,
                directed=True,
                indices=np.unique(rows[sel]),
                min_only=True,
                limit=limit,
            )
            union = np.flatnonzero(np.isfinite(sweep))
            u = int(union.size)
            if g > 1 and g * u > CELL_BUDGET:
                pending += [sel[g // 2 :], sel[: g // 2]]
                continue
            local[union] = np.arange(u, dtype=np.int64)
            d = _scipy_dijkstra(
                _induced_subgraph(csr, union, local),
                directed=True,
                indices=local[rows[sel]],
                min_only=False,
                limit=limit,
            )
            local[union] = -1
            reach = np.count_nonzero(d <= gate[sel][:, None], axis=1)
            # The settle-order cutoff (d, node) < (nn_forward, label):
            # candidates with d <= nn_forward, then the ties at exactly
            # nn_forward dropped unless their global id is smaller.
            li, col = np.nonzero((d <= nnf[sel][:, None]) & cand[union][None, :])
            dm = d[li, col]
            keep = (dm < nnf[sel][li]) | (union[col] < lab[sel][li])
            li, col, dm = li[keep], col[keep], dm[keep]
            # Reference settle order per row: (row, d, node).  Ranking d
            # makes that one exact int64 key (below (g * u) ** 2, as
            # len(dm) <= g * u), so a plain argsort replaces a three-key
            # lexsort.
            _, rank = np.unique(dm, return_inverse=True)
            o = np.argsort((li * int(dm.size) + rank) * u + col)
            row_parts.append(sel)
            count_parts.append(np.bincount(li, minlength=g))
            reach_parts.append(reach)
            node_parts.append(union[col[o]])
            dist_parts.append(dm[o])
            stats.searches += g
            # Reached-node counts: the gated node sets are
            # schedule-independent, so these match the reference
            # backend and any grouping (pushes is backend-defined; the
            # reached count is this backend's work measure).
            reached = int(reach.sum())
            stats.settled += reached
            stats.pushes += reached
        order = np.concatenate(row_parts)
        counts_sorted = np.concatenate(count_parts)
        counts = np.empty(m, dtype=np.int64)
        counts[order] = counts_sorted
        settled = np.empty(m, dtype=np.int64)
        settled[order] = np.concatenate(reach_parts)
        # Scatter each processed row's member run to its offset in the
        # input-order columns (exclusive-cumsum offset arithmetic, the
        # same trick as _edge_indices).
        out_start = np.cumsum(counts) - counts
        excl = np.cumsum(counts_sorted) - counts_sorted
        positions = np.repeat(out_start[order] - excl, counts_sorted)
        positions += np.arange(positions.size, dtype=np.int64)
        return (
            counts,
            _scattered(node_parts, positions).astype(np.int64, copy=False),
            _scattered(dist_parts, positions),
            settled,
        )


#: Side of the square tiles that group query balls, in coordinate units
#: (kilometres by convention, like the costs).  It is set against the
#: rows' radii — each query's nearest-stop distance: the median radius
#: is 0.6-1.9 km on the synthetic cities, from Chicago to Orlando, and
#: the radius is 1-Lipschitz in the query position, so rows sharing a
#: 2 km tile have similar radii and a union ball a few radii wide.
#: Smaller tiles run more full-graph union sweeps; larger tiles widen
#: every row's dense block.
TILE_SIDE = 2.0

#: Most cells (rows × union-ball nodes) one dense csgraph call may
#: produce: 2**21 float64 cells are 16 MB.
CELL_BUDGET = 1 << 21

_MAX_DOUBLE = float(np.finfo(np.float64).max)


def _tile_groups(xy: np.ndarray, gate: np.ndarray) -> List[np.ndarray]:
    """Row indices grouped by :data:`TILE_SIDE` tile of their query
    node's coordinates ``xy``, each group sorted by ``gate``."""
    cell = np.floor((xy - xy.min(axis=0)) / TILE_SIDE).astype(np.int64)
    key = cell[:, 0] * (int(cell[:, 1].max()) + 1) + cell[:, 1]
    order = np.lexsort((gate, key))
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def _induced_subgraph(
    csr: "CSRAdjacency", nodes: np.ndarray, local: np.ndarray
) -> Any:
    """The subgraph induced by sorted ``nodes``, as a scipy matrix over
    local ids ``local[nodes]`` (``-1`` marks every node outside), cut
    straight from the CSR arrays with each row's arc order kept."""
    indptr = csr.np_indptr
    edge_idx = _edge_indices(indptr, nodes)
    tgt = local[csr.np_targets[edge_idx]]
    keep = tgt >= 0
    owner = np.repeat(
        np.arange(nodes.size, dtype=np.int64), indptr[nodes + 1] - indptr[nodes]
    )
    sub_indptr = np.zeros(nodes.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=nodes.size), out=sub_indptr[1:])
    return _scipy_csr_matrix(
        (csr.np_costs[edge_idx[keep]], tgt[keep].astype(np.int32), sub_indptr),
        shape=(nodes.size, nodes.size),
        copy=False,
    )


def _scattered(parts: List[np.ndarray], positions: np.ndarray) -> np.ndarray:
    """Concatenate ``parts`` (emptying the list, so its arrays can be
    freed) and scatter the stream to ``positions``."""
    stream = np.concatenate(parts)
    parts.clear()
    out = np.empty_like(stream)
    out[positions] = stream
    return out


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
    n: int,
    tight: Tuple[np.ndarray, np.ndarray, np.ndarray],
    sources: Sequence[int],
) -> np.ndarray:
    """The lexicographic-min source label of every node over the tight
    DAG ``tight`` of a field over ``n`` nodes — iterative scatter-min
    label propagation (the DAG is acyclic in strictly increasing
    distance, so the fixed point is unique and equals the reference
    backend's one-pass derivation); ``-1`` where no source reaches."""
    label = np.full(n, n, dtype=np.int64)
    if sources:
        src = np.asarray(list(sources), dtype=np.int64)
        label[src] = src
    tu, tv, _ = tight
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
    label[label == n] = -1
    return label


def _tight_predecessors(
    n: int, dist: np.ndarray, tight: Tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical predecessor of every reachable non-source node — the
    tight in-neighbour minimising ``(dist[u], u)`` over the tight arcs
    ``tight`` of ``dist`` — and the cost of that arc, as dense arrays
    (``-1`` / ``0.0`` where undefined)."""
    tu, tv, tc = tight
    pred = np.full(n, -1, dtype=np.int64)
    step = np.zeros(n)
    if tu.size:
        order = np.lexsort((tu, dist[tu], tv))
        tv_s = tv[order]
        first = np.concatenate((np.ones(1, dtype=bool), tv_s[1:] != tv_s[:-1]))
        pred[tv_s[first]] = tu[order][first]
        step[tv_s[first]] = tc[order][first]
    return pred, step


def _sweep(
    csr: "CSRAdjacency", sources: Sequence[int], stats: "SearchStats"
) -> np.ndarray:
    """One compiled ``min_only`` csgraph Dijkstra from ``sources``: the
    converged multi-source row as a float64 array.  Every reached node
    settles once, so ``settled`` (and this backend's ``pushes``) is the
    reached count."""
    stats.searches += 1
    dist = _scipy_dijkstra(
        _as_scipy_graph(csr),
        directed=True,
        indices=np.unique(np.asarray(list(sources), dtype=np.int64)),
        min_only=True,
    )
    reached = int(np.count_nonzero(np.isfinite(dist)))
    stats.settled += reached
    stats.pushes += reached
    return dist


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
