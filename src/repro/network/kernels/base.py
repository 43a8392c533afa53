"""The ``SearchKernel`` protocol: the primitive-search contract.

A kernel is the *algorithmic substrate* under
:class:`~repro.network.engine.SearchEngine`: it runs the seven primitive
searches that plans reach — single- and multi-source SSSP (prices,
Christofides ordering, the walk-limit metrics), point-to-point path and
distance and cost balls (refinement, post-processing), the Algorithm 2
query search (the per-query oracle) and its batched inverted form (the
label field with its canonical tree, query balls) — over one
:class:`~repro.network.csr.CSRAdjacency` snapshot and accounts
its work to a caller-supplied :class:`~repro.network.engine.SearchStats`
block.  Everything *above* the kernel — the LRU caches, the per-phase
stats ledger, the public API — lives in the engine and is
backend-independent.

The relaxation-order contract
-----------------------------

Every backend must produce results **bit-identical** to the reference
:class:`~repro.network.kernels.python.PythonKernel` on any CSR snapshot
with strictly positive edge costs:

* **distances**: each returned distance is the same IEEE-754 double the
  reference heapq Dijkstra computes.  This is stronger than "equal up
  to epsilon": the set of candidate values relaxed into a node must be
  the same float set (``dist[u] + cost(u, v)`` with the *final* value
  of ``dist[u]``), so the minimum is the same bit pattern;
* **predecessor tie-breaks**: where a predecessor is exposed (the
  ``path`` primitive and the label field's tree), ties resolve to the
  predecessor that settles first in the reference order —
  non-decreasing ``(distance, node id)``;
* **settle order**: ordered outputs (``nodes_within``) list nodes in
  the reference settle order, i.e. sorted by ``(distance, node id)``;
* **counters**: ``searches`` and ``settled`` are identical to the
  reference backend — they count *nodes*, not implementation steps,
  and the node sets are fixed by the contract.
  ``pushes`` is the one backend-defined counter: it measures frontier
  insertions under the backend's own relaxation schedule (heap pushes
  for the heapq backend, reached-node counts for the vectorized one)
  and is documented as a work measure, not an invariant.

The inverted-preprocessing primitives
-------------------------------------

``multi_source_labels`` starts batching Algorithm 2 by inverting it:
instead of learning each query's nearest existing stop from its own
Dijkstra, one backward multi-source field from the existing stops
labels every node at once.  They rely on the
:class:`~repro.network.graph.RoadNetwork` invariant that the graph is
**undirected** (both arcs of every edge are in the CSR with the same
cost), so a distance accumulated *from* a stop equals — in exact
arithmetic — the distance the per-query search accumulates *towards*
it.  In IEEE-754 the two accumulation orders differ in the last ulps,
which is why the nearest-stop distance handed to each query is
re-accumulated in **forward order** (from the query side) along the
canonical tight shortest-path tree of the field:

* a **tight edge** of a converged distance field is an arc ``(u, v)``
  with ``dist[u] < dist[v]`` and ``dist[u] + cost <= dist[v]`` (the
  ``<=`` is an exact float equality test: ``dist[u] + cost`` is always
  ``>= dist[v]`` at the fixed point);
* the **canonical predecessor** of ``v`` is the tight in-neighbour
  minimising ``(dist[u], u)`` — deterministic and backend-independent.
  The field carries it per node, with the cost of that arc, so the
  field *is* its canonical shortest-path tree;
* a **forward replay**
  (:meth:`~repro.network.engine.LabelField.forward_distances`) walks
  the canonical predecessor chain from a node towards its field
  source, re-adding edge costs in walk order
  (``acc = 0; acc += c0; acc += c1; ...``) — exactly the order the
  reference per-query Dijkstra adds them, so in generic position (no
  two distinct paths within an ulp of each other) the replayed float is
  bit-identical to the per-query one.  Graphs whose costs make every
  tight path *exactly* equal (e.g. integer costs) are also bit-exact;
  only the measure-zero in-between (distinct paths equal in backward
  float order but not forward) can differ, documented in DESIGN.md.

``batch_query_rows`` is the second inverted primitive: once the label
field has replayed every query's truncation radius ``nn_forward(q)``,
the ``|Q|`` per-query searches become **query-rooted balls** — one
pruned relaxation per query node, all batchable over the product graph
because the radius is known *up front* (the per-query loop only learns
it when the first existing stop settles, which is what made it
unbatchable).  A query ball accumulates distances *from the query
side*, i.e. in exactly the float association of the reference
per-query Dijkstra, so its distances need **no forward replay at all**
— they are the per-query doubles by construction, and the generic-
position caveat above applies only through the radius (``nn_forward``)
fed into the cutoff, not to the emitted member distances.

The cross-backend equivalence property suite
(``tests/properties/test_kernel_equivalence.py``) asserts the contract
on all three synthetic city families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Protocol, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    import numpy as np

    from ..csr import CSRAdjacency
    from ..engine import SearchStats


class SearchKernel(Protocol):
    """The seven primitive searches every backend implements.

    All methods take the CSR snapshot and the stats block explicitly —
    kernels are stateless and shareable across engines; per-network
    state (caches, snapshots, counters) belongs to the engine.
    """

    #: Registry name of the backend (``python``, ``vectorized``).
    name: str

    def sssp(
        self,
        csr: "CSRAdjacency",
        sources: Sequence[int],
        stats: "SearchStats",
    ) -> List[float]:
        """Single- or multi-source shortest-path costs (``inf`` where
        no source reaches)."""
        ...

    def path(
        self,
        csr: "CSRAdjacency",
        source: int,
        target: int,
        stats: "SearchStats",
    ) -> Tuple[List[int], float]:
        """Cheapest ``source -> target`` path and its cost; raises
        :class:`~repro.exceptions.GraphError` when unreachable."""
        ...

    def distance(
        self,
        csr: "CSRAdjacency",
        source: int,
        target: int,
        stats: "SearchStats",
    ) -> float:
        """Point-to-point distance with target early stop; ``inf`` when
        ``target`` is unreachable."""
        ...

    def query_search(
        self,
        csr: "CSRAdjacency",
        query_node: int,
        is_existing_stop: Sequence[bool],
        is_candidate_stop: Sequence[bool],
        stats: "SearchStats",
    ) -> Tuple[int, float, List[Tuple[int, float]]]:
        """The per-query search of Algorithm 2: settle outward until the
        first existing stop, collecting candidate stops on the way."""
        ...

    def nodes_within(
        self,
        csr: "CSRAdjacency",
        source: int,
        radius: float,
        stats: "SearchStats",
    ) -> List[Tuple[int, float]]:
        """All ``(node, dist)`` within ``radius`` (plus epsilon) of
        ``source``, in settle order, excluding ``source``."""
        ...

    def multi_source_labels(
        self,
        csr: "CSRAdjacency",
        sources: Sequence[int],
        stats: "SearchStats",
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        """The nearest-source field and its canonical tree, as four
        arrays ``(distance, label, pred, step)`` of dtypes float64,
        int64, int64 and float64: ``distance[v]`` is the multi-source
        shortest-path cost from any source (one search, bit-identical
        to :meth:`sssp`); ``label[v]`` is the **lexicographically
        smallest source id over tight shortest paths** to ``v``;
        ``pred[v]`` is ``v``'s canonical predecessor and ``step[v]``
        the cost of that arc (see the module docstring).  ``label`` is
        ``-1`` at unreachable nodes, ``pred`` is ``-1`` and ``step``
        ``0.0`` at sources and unreachable nodes.  Everything after the
        search is a pure post-pass over the converged field."""
        ...

    def batch_query_rows(
        self,
        csr: "CSRAdjacency",
        query_nodes: Sequence[int],
        nn_forward: Sequence[float],
        labels: Sequence[int],
        is_candidate_stop: Sequence[bool],
        stats: "SearchStats",
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        """One pruned **query-rooted** ball per query node — the
        batched form of :meth:`query_search` once the label field has
        supplied each query's truncation radius ``nn_forward[i]`` and
        nearest-stop label ``labels[i]`` (see the module docstring).

        Ball ``i`` relaxes outward from ``query_nodes[i]`` with the
        push gate ``nd <= nn_forward[i] * (1 + BALL_SLACK)``: a node
        farther out than the query's own nearest existing stop can
        never settle before it, so the gate is exact goal pruning.
        Distances accumulate from the query side, giving the reference
        per-query doubles with no replay.  A reached node ``x`` is a
        *member* iff ``is_candidate_stop[x]`` and ``(d, x)`` is
        lexicographically below ``(nn_forward[i], labels[i])`` — the
        settle-order cutoff at which the per-query search terminates.

        Returns **columnar** output — four numpy arrays
        ``(member_counts, member_nodes, member_dists, settled)`` of
        dtypes int64, int64, float64 and int64: ``member_counts[i]``
        members for ball ``i``; ``member_nodes``/``member_dists`` hold
        the flattened members row-major, each row's slice in settle
        order ``(d, node)``; ``settled[i]`` is ball ``i``'s reached-node
        count (seed included).  The arrays go straight into Algorithm
        2's columnar RNN table (``repro.core.preprocess.RNNTable``)
        with no python-object round trip, and the cross-backend parity
        check is ``np.array_equal`` per column, dtypes included.
        Counters: one search per query node; ``settled`` sums the
        reached-set sizes (a fixed point of the gate, so identical
        across backends and across any chunking); ``pushes`` is
        backend-defined."""
        ...
