"""The unified search engine: one entry point for the Dijkstra family.

Every EBRR phase (Algorithm 2 preprocessing, selection's prices,
Christofides ordering, path refinement), every baseline, and the
multimodal journey planner search on :class:`SearchEngine`, so
identical single-source searches are not recomputed across phases or
across K/Q sweeps — the redundancy the paper's filtered/lazy machinery
exists to avoid.  It is a single owned, cacheable, observable
substrate:

* searches iterate a flat :class:`~repro.network.csr.CSRAdjacency`
  built once per network (a :class:`~repro.network.graph.RoadNetwork`
  is immutable, so the snapshot and every cached result stay valid for
  the engine's lifetime);
* SSSP rows are memoised in an LRU cache keyed ``("sssp", source)``
  (multi-source rows, label fields, cost balls, point-to-point paths
  and distances have their own keys), so a K sweep that re-orders the
  same selected stops, or a baseline that re-traces the same OD pair,
  reuses the earlier row instead of re-searching;
* every call is accounted to a :class:`SearchStats` block under a
  caller-chosen *phase* label, surfacing searches run, cache hits,
  nodes settled and heap pushes per logical phase (the
  ``--profile-searches`` CLI table and
  :attr:`~repro.core.result.EBRRResult.search_stats`);
* the *algorithms* live one layer down, in the pluggable backends of
  :mod:`repro.network.kernels`: the engine owns caching and stats and
  delegates each of the seven primitive searches to a
  :class:`~repro.network.kernels.base.SearchKernel`
  (``python`` heapq reference or scipy ``vectorized``).  The backend
  is chosen once, where the engine is built: ``SearchEngine(network,
  kernel=...)``, else ``$REPRO_KERNEL``, else the default.  Backends
  are bit-identical by contract, so the choice changes speed, never a
  result.

Results returned from cached entries are the cached objects themselves:
**treat every returned list as read-only.**

This module is the only importer of :mod:`repro.network.kernels`
(reprolint RL009); it re-exports :func:`available_kernels`,
:func:`resolve_kernel` and :data:`KERNEL_IDS` for the CLI's
``$REPRO_KERNEL`` check and the ``search.kernel`` gauge.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import GraphError
from .csr import CSRAdjacency
from .graph import RoadNetwork
from .kernels import (
    DEFAULT_KERNEL,
    KERNEL_IDS,
    SearchKernel,
    available_kernels,
    resolve_kernel,
)

__all__ = [
    "SearchStats",
    "CacheInfo",
    "SearchEngine",
    "IncrementalNearest",
    "LabelField",
    "QuerySearchRow",
    "engine_for",
    "DEFAULT_KERNEL",
    "KERNEL_IDS",
    "SearchKernel",
    "available_kernels",
    "resolve_kernel",
]

#: One Algorithm 2 search result, keyed by its query node:
#: ``(query_node, nn_stop, nn_dist, [(candidate, dist), ...])`` —
#: :meth:`SearchEngine.query_search`'s result prefixed with its node.
QuerySearchRow = Tuple[int, int, float, List[Tuple[int, float]]]

INF = math.inf


@dataclass
class SearchStats:
    """Counters for one logical phase of search work.

    Attributes:
        searches: graph searches actually executed (cache hits excluded).
        cache_hits: requests answered from the result cache.
        settled: nodes settled over all searches (backend-independent:
            both kernels count the same node sets).
        pushes: frontier insertions over all searches, including seeds.
            This is the one *backend-defined* counter — heap pushes for
            the python kernel, reached-node counts for the vectorized
            one (see ``kernels.base``).
    """

    searches: int = 0
    cache_hits: int = 0
    settled: int = 0
    pushes: int = 0

    def copy(self) -> "SearchStats":
        return SearchStats(self.searches, self.cache_hits, self.settled, self.pushes)

    def __add__(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(
            self.searches + other.searches,
            self.cache_hits + other.cache_hits,
            self.settled + other.settled,
            self.pushes + other.pushes,
        )

    def __sub__(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(
            self.searches - other.searches,
            self.cache_hits - other.cache_hits,
            self.settled - other.settled,
            self.pushes - other.pushes,
        )

    def __bool__(self) -> bool:
        return bool(self.searches or self.cache_hits or self.settled or self.pushes)

    def as_dict(self) -> Dict[str, int]:
        return {
            "searches": self.searches,
            "cache_hits": self.cache_hits,
            "settled": self.settled,
            "pushes": self.pushes,
        }


@dataclass
class CacheInfo:
    """Aggregate cache behaviour of one engine.

    Attributes:
        hits / misses: cache lookups answered / not answered.
        evictions: entries dropped by the LRU bound.
        rows: SSSP/multi-source/ball rows currently cached.
        points: point-to-point paths and distances currently cached.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rows: int = 0
    points: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True, eq=False)
class LabelField:
    """A converged nearest-source field over one CSR snapshot, with its
    canonical shortest-path tree.

    Produced by :meth:`SearchEngine.multi_source_labels` and consumed by
    the inverted Algorithm 2 preprocessing: ``distance[v]`` is the
    multi-source shortest-path cost from any source (bit-identical to
    :meth:`SearchEngine.multi_source`), ``label[v]`` the
    lexicographically smallest source id over tight shortest paths to
    ``v``, and ``pred[v]``/``step[v]`` the canonical predecessor of
    ``v`` — the tight in-neighbour with the smallest ``(distance[u],
    u)`` — and the cost of that arc (see the kernel contract in
    ``kernels.base``).  Cached on the engine keyed by ``sources`` (the
    sorted, deduplicated stop-set fingerprint), so repeated
    preprocessing over the same stops reuses the field and its tree.
    Shared with the cache: **treat every array as read-only.**

    Attributes:
        sources: the fingerprint — sorted unique source node ids.
        distance: per-node nearest-source cost (float64, ``inf``
            unreachable).
        label: per-node argmin source id (int64, ``-1`` unreachable).
        pred: per-node canonical predecessor (int64, ``-1`` at sources
            and unreachable nodes).
        step: per-node cost of the arc from ``pred`` (float64, ``0.0``
            where ``pred`` is ``-1``).
        reachable: number of finite entries (the field's settled-node
            count, independent of how the field was computed).
    """

    sources: Tuple[int, ...]
    distance: np.ndarray
    label: np.ndarray
    pred: np.ndarray
    step: np.ndarray
    reachable: int

    def forward_distances(self, targets: Sequence[int]) -> List[float]:
        """Forward-replayed nearest-source distance of each target: walk
        the canonical tree from the target to its source, adding arc
        costs in walk order — the float a per-query search from the
        target would compute, in generic position (see
        ``kernels.base``).  ``0.0`` at sources, ``inf`` for unreachable
        targets; a walk over the field, not a search."""
        nodes = np.asarray(list(targets), dtype=np.int64)
        dist, pred, step = self.distance, self.pred, self.step
        reachable = np.isfinite(dist[nodes])
        acc = np.zeros(nodes.size)
        cur = nodes.copy()
        active = reachable & (dist[nodes] > 0.0)
        # All walks step toward their source simultaneously; each round
        # performs the same scalar addition a per-target walk performs
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
        return np.where(reachable, acc, INF).tolist()


class SearchEngine:
    """Cached, instrumented Dijkstra family over one road network.

    Args:
        network: the road network to search.
        cache_size: LRU bound on cached *rows* (SSSP, multi-source,
            label-field and cost-ball results; each is O(|V|)).  The
            point cache (paths, pairwise distances) is bounded at four
            times this value.
        kernel: search backend — a registered name (``"python"``,
            ``"vectorized"``), a :class:`SearchKernel` instance, or
            ``None`` to fall back to ``$REPRO_KERNEL`` then the
            default.

    One engine per network is the intended usage; obtain the shared one
    with :func:`engine_for`.
    """

    def __init__(
        self,
        network: RoadNetwork,
        *,
        cache_size: int = 64,
        kernel: Union[str, SearchKernel, None] = None,
    ) -> None:
        if cache_size < 1:
            raise GraphError(f"cache_size must be >= 1, got {cache_size}")
        self._network = network
        self._csr = CSRAdjacency(network)
        self._cache_size = cache_size
        self._kernel: SearchKernel = resolve_kernel(kernel)
        self._rows: "OrderedDict[tuple, object]" = OrderedDict()
        self._points: "OrderedDict[tuple, object]" = OrderedDict()
        self._stats: Dict[str, SearchStats] = {}
        self._info = CacheInfo()

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def csr(self) -> CSRAdjacency:
        """The network's CSR snapshot."""
        return self._csr

    @property
    def kernel(self) -> SearchKernel:
        """The active search backend."""
        return self._kernel

    @property
    def kernel_name(self) -> str:
        """Registry name of the active backend (``"python"``, ...)."""
        return self._kernel.name

    @property
    def cache_capacity(self) -> int:
        """The LRU bound on cached rows (points are bounded at 4x)."""
        return self._cache_size

    def set_cache_capacity(self, capacity: int) -> None:
        """Rebound the row cache to ``capacity`` entries (points to 4x).

        Shrinking trims oldest-first immediately — the trimmed entries
        count as evictions — so a long-lived process (the serve daemon)
        can cap resident memory without restarting.  Capacity is purely
        a reuse knob: results never depend on it, only hit rates do.

        Raises:
            GraphError: when ``capacity`` is less than 1.
        """
        if capacity < 1:
            raise GraphError(f"cache_capacity must be >= 1, got {capacity}")
        self._cache_size = capacity
        for store, bound in ((self._rows, capacity), (self._points, 4 * capacity)):
            while len(store) > bound:
                store.popitem(last=False)
                self._info.evictions += 1

    def counters(self, phase: str) -> SearchStats:
        """The live, mutable stats block for ``phase`` (created on first
        use).  External searchers that ride on the engine's CSR (e.g.
        the journey planner) account their work through this."""
        stats = self._stats.get(phase)
        if stats is None:
            stats = self._stats[phase] = SearchStats()
        return stats

    @property
    def stats(self) -> Dict[str, SearchStats]:
        """Live per-phase stats (mutable; snapshot before arithmetic)."""
        return self._stats

    def snapshot(self) -> Dict[str, SearchStats]:
        """A frozen copy of all per-phase stats, for later diffing."""
        return {phase: stats.copy() for phase, stats in self._stats.items()}

    def stats_since(
        self, snapshot: Dict[str, SearchStats]
    ) -> Dict[str, SearchStats]:
        """Per-phase deltas against an earlier :meth:`snapshot`, with
        all-zero phases dropped."""
        zero = SearchStats()
        delta = {
            phase: stats - snapshot.get(phase, zero)
            for phase, stats in self._stats.items()
        }
        return {phase: stats for phase, stats in delta.items() if stats}

    def total_stats(self) -> SearchStats:
        """All phases summed."""
        total = SearchStats()
        for stats in self._stats.values():
            total = total + stats
        return total

    def cache_info(self) -> CacheInfo:
        info = replace(self._info)  # a snapshot, so before/after pairs compare
        info.rows = len(self._rows)
        info.points = len(self._points)
        return info

    def clear_cache(self) -> None:
        """Drop every cached result (stats are kept)."""
        self._rows.clear()
        self._points.clear()

    def _get(
        self,
        store: "OrderedDict[tuple, object]",
        key: tuple,
        stats: SearchStats,
    ) -> Optional[object]:
        entry = store.get(key)
        if entry is not None:
            store.move_to_end(key)
            self._info.hits += 1
            stats.cache_hits += 1
        else:
            self._info.misses += 1
        return entry

    def _put(
        self,
        store: "OrderedDict[tuple, object]",
        key: tuple,
        value: object,
        bound: int,
    ) -> None:
        store[key] = value
        if len(store) > bound:
            store.popitem(last=False)
            self._info.evictions += 1

    # ------------------------------------------------------------------
    # The Dijkstra family
    # ------------------------------------------------------------------

    def sssp(
        self, source: int, *, phase: str = "adhoc", cached: bool = True
    ) -> List[float]:
        """Single-source shortest path costs (cached).

        ``dist[v]`` is the cost of the cheapest path ``source -> v``
        (``inf`` when unreachable).  The returned list is shared with
        the cache — **read-only**.

        Args:
            source: start node.
            phase: stats bucket to account the work to.
            cached: disable the cache for one-off sweeps (e.g. exact
                diameter computation) that would churn the LRU.
        """
        stats = self.counters(phase)
        key = ("sssp", source)
        if cached:
            row = self._get(self._rows, key, stats)
            if row is not None:
                return row  # type: ignore[return-value]
        dist = self._kernel.sssp(self._csr, [source], stats)
        if cached:
            self._put(self._rows, key, dist, self._cache_size)
        return dist

    def multi_source(
        self, sources: Sequence[int], *, phase: str = "adhoc", cached: bool = True
    ) -> List[float]:
        """Cost of the cheapest path from *any* source to each node
        (cached; Dijkstra from a virtual super-source joined to every
        source by a zero-cost edge).  The returned list is shared with
        the cache — **read-only**."""
        stats = self.counters(phase)
        source_list = list(sources)
        if len(source_list) == 1:
            return self.sssp(source_list[0], phase=phase, cached=cached)
        key = ("ms", tuple(source_list))
        if cached:
            row = self._get(self._rows, key, stats)
            if row is not None:
                return row  # type: ignore[return-value]
        dist = self._kernel.sssp(self._csr, source_list, stats)
        if cached:
            self._put(self._rows, key, dist, self._cache_size)
        return dist

    def path(
        self, source: int, target: int, *, phase: str = "adhoc"
    ) -> Tuple[List[int], float]:
        """The cheapest path between two nodes and its cost (cached).
        The path starts at ``source`` and ends at ``target``; the list
        is shared with the cache — **read-only**.

        Raises:
            GraphError: if ``target`` is unreachable.
        """
        stats = self.counters(phase)
        key = ("path", source, target)
        entry = self._get(self._points, key, stats)
        if entry is not None:
            return entry  # type: ignore[return-value]
        result = self._kernel.path(self._csr, source, target, stats)
        self._put(self._points, key, result, 4 * self._cache_size)
        return result

    def distance(self, source: int, target: int, *, phase: str = "adhoc") -> float:
        """Network distance between two nodes with target early stop
        (``inf`` when unreachable).  Served from a cached SSSP row when
        one exists, else from the point cache, which keeps one entry
        per ``(source, target)`` pair."""
        if source == target:
            return 0.0
        stats = self.counters(phase)
        full = self._rows.get(("sssp", source))
        if full is not None:
            self._rows.move_to_end(("sssp", source))
            self._info.hits += 1
            stats.cache_hits += 1
            return full[target]  # type: ignore[index]
        key = ("dist", source, target)
        entry = self._get(self._points, key, stats)
        if entry is not None:
            return entry  # type: ignore[return-value]
        result = self._kernel.distance(self._csr, source, target, stats)
        self._put(self._points, key, result, 4 * self._cache_size)
        return result

    def query_search(
        self,
        query_node: int,
        is_existing_stop: Sequence[bool],
        is_candidate_stop: Sequence[bool],
        *,
        phase: str = "adhoc",
    ) -> Tuple[int, float, List[Tuple[int, float]]]:
        """The per-query search of Algorithm 2 (lines 2-10): Dijkstra
        from ``query_node`` until the first settled existing stop
        ``nn(q)``, collecting the candidate stops settled strictly
        before it with their distances — exactly the stops whose
        reverse-nearest-neighbour sets contain the query.  Returns
        ``(nn_stop, nn_distance, visited_candidates)``.  Uncached — the
        result depends on the instance's stop masks, not only on the
        graph.

        Raises:
            GraphError: if no existing stop is reachable.
        """
        stats = self.counters(phase)
        return self._kernel.query_search(
            self._csr, query_node, is_existing_stop, is_candidate_stop, stats
        )

    def multi_source_labels(
        self, sources: Sequence[int], *, phase: str = "adhoc", cached: bool = True
    ) -> "LabelField":
        """The nearest-source :class:`LabelField` of ``sources`` and its
        canonical tree (one multi-source search plus a post-pass; see
        the kernel contract in ``kernels.base``), cached keyed on the
        stop-set fingerprint (the sorted unique sources).  A miss runs
        one fresh multi-source search."""
        stats = self.counters(phase)
        fingerprint = tuple(sorted(set(sources)))
        key = ("labels", fingerprint)
        if cached:
            entry = self._get(self._rows, key, stats)
            if entry is not None:
                return entry  # type: ignore[return-value]
        distance, label, pred, step = self._kernel.multi_source_labels(
            self._csr, list(fingerprint), stats
        )
        field = LabelField(
            fingerprint,
            distance,
            label,
            pred,
            step,
            int(np.count_nonzero(np.isfinite(distance))),
        )
        if cached:
            self._put(self._rows, key, field, self._cache_size)
        return field

    def batch_query_rows(
        self,
        query_nodes: Sequence[int],
        nn_forward: Sequence[float],
        labels: Sequence[int],
        is_candidate_stop: Sequence[bool],
        *,
        phase: str = "adhoc",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One pruned query-rooted ball per query node, in columnar
        form (see the kernel contract in ``kernels.base``): the caller
        supplies each query's forward-replayed nearest-stop distance
        and label from a :class:`LabelField`
        (:meth:`LabelField.forward_distances`), and gets back
        ``(member_counts, member_nodes, member_dists, settled)`` as
        int64/int64/float64/int64 arrays.  Uncached — the result
        depends on the instance's candidate mask, not only on the
        graph."""
        stats = self.counters(phase)
        return self._kernel.batch_query_rows(
            self._csr,
            list(query_nodes),
            list(nn_forward),
            list(labels),
            is_candidate_stop,
            stats,
        )

    def nodes_within(
        self,
        source: int,
        max_cost: float,
        *,
        phase: str = "adhoc",
        cached: bool = True,
    ) -> List[Tuple[int, float]]:
        """All ``(node, dist)`` with network distance from ``source`` at
        most ``max_cost`` (within epsilon), in settle order, excluding
        ``source`` itself — the truncated ball used by refinement and
        post-processing.  The returned list is shared with the cache —
        **read-only**."""
        stats = self.counters(phase)
        key = ("within", source, max_cost)
        if cached:
            entry = self._get(self._rows, key, stats)
            if entry is not None:
                return entry  # type: ignore[return-value]
        result = self._kernel.nodes_within(self._csr, source, max_cost, stats)
        if cached:
            self._put(self._rows, key, result, self._cache_size)
        return result

    def incremental_nearest(self, *, phase: str = "adhoc") -> "IncrementalNearest":
        """A fresh nearest-distance-to-a-growing-set maintainer (the
        EBRR ``dist(·, B)`` structure): the minimum of its sources'
        cached :meth:`sssp` rows, folded when read and accounted to
        ``phase``."""
        return IncrementalNearest(self, phase)


class IncrementalNearest:
    """Nearest-distance-to-a-growing-set maintenance on the engine.

    Maintains ``distance[v] = min over s in S of dist(v, s)`` for a set
    ``S`` that only grows, as the pointwise minimum of the sources'
    :meth:`SearchEngine.sssp` rows — bit-identical to a multi-source
    search, whose fixed point is that minimum (DESIGN.md, "Incremental
    ``dist(·, B)``").  :meth:`add_source` only
    records a source; the next read of :attr:`distance` folds the
    pending ones in, one cached row each, accounted to the engine's
    stats under the phase.  A source no later read needs costs nothing,
    and a folded row stays in the engine's LRU for later ``sssp``
    callers (Christofides ordering, later plans).  EBRR keeps every
    candidate stop's distance to the solution set ``B`` (the price
    function) in one.
    """

    def __init__(self, engine: SearchEngine, phase: str) -> None:
        self._engine = engine
        self._phase = phase
        self._distance = np.full(engine.csr.num_nodes, INF)
        self._sources: List[int] = []
        self._pending: List[int] = []

    @property
    def sources(self) -> List[int]:
        """The sources added so far, in insertion order (a copy)."""
        return list(self._sources)

    def add_source(self, source: int) -> None:
        """Add ``source`` to the set; its row is folded in on the next
        read of :attr:`distance`."""
        self._sources.append(source)
        self._pending.append(source)

    @property
    def distance(self) -> np.ndarray:
        """``min over s in S of dist(v, s)`` per node, as a float64
        array (``inf`` where no source reaches); folds the pending
        sources first.  Owned by this object — **read-only**."""
        if self._pending:
            dist = self._distance
            for source in self._pending:
                row = self._engine.sssp(source, phase=self._phase)
                np.minimum(dist, row, out=dist)
            self._pending.clear()
        return self._distance

    def __getitem__(self, node: int) -> float:
        return float(self.distance[node])


def engine_for(network: RoadNetwork) -> SearchEngine:
    """The shared :class:`SearchEngine` of ``network``.

    Created lazily on first call and stored on the network object, so
    every module searching the same network — EBRR phases, baselines,
    the journey planner — shares one cache and one stats ledger.  The
    engine's lifetime is the network's, and its backend is the one
    ``$REPRO_KERNEL`` (else the default) named when it was built; a
    caller that wants another backend builds its own
    ``SearchEngine(network, kernel=...)``.
    """
    engine = getattr(network, "_search_engine", None)
    if engine is None:
        engine = SearchEngine(network)
        network._search_engine = engine  # type: ignore[attr-defined]
    return engine
