"""Query preprocessing — Algorithm 2 of the paper.

The paper's loop runs one truncated Dijkstra per *distinct* query node,
settling outward until it reaches the first existing stop ``nn(q)``
(the nearest one, by the Dijkstra property) and recording every
candidate stop settled on the way together with its distance.  Those
candidates are exactly the stops whose selection would reduce this
query's walking cost, i.e. the query belongs to their
reverse-nearest-neighbour sets ``RNN(v)``.

:func:`preprocess_queries` computes the same table without the ``|Q|``
sequential searches: one multi-source label field from all existing
stops gives every node its ``nn`` distance and nearest-stop label in a
single pass, forward replay turns those into each query's per-query
``nn`` float, and then — because every query's truncation radius is now
known *up front* — the searches themselves become **query-rooted
balls**, batched hundreds at a time over the product graph
(:meth:`SearchEngine.batch_query_rows`).  A query ball accumulates
distances from the query side, i.e. in exactly the per-query float
association, so its member distances need no replay; the settle-order
cutoff ``(d, v) < (nn(q), nn_stop(q))`` is applied inside the kernel.
The batched search returns *columnar* arrays, and the result keeps
them: the RNN sets are one node-indexed CSR table (:class:`RNNTable`,
a stable grouping of the member stream by candidate), and utilities
are exact left folds over its rows, so the path is array-native end to
end and no ``(query, dist)`` tuple is ever built on it.

:func:`per_query_preprocess` keeps the paper's literal loop as the
oracle — python lists merged pair by pair and folded entry by entry,
then stored in the same table format: the equivalence suite asserts
that both functions produce equal
``nn_distance``/``rnn``/``initial_utility`` contents and bit-identical
downstream ``EBRRResult``s (see DESIGN.md "Batched preprocessing" for
the inversion argument and the generic-position caveat), and the
inverted-preprocessing bench times against it.  The planner never runs
it.

The output powers the whole selection phase:

* initial utilities ``U(v)`` for all stops (line 1 of Algorithm 1);
* exact marginal walking gains during selection —
  ``ΔWalk_B(v) = Σ_{(q,d) ∈ RNN(v)} count(q) · max(d_cur(q) − d, 0)``
  where ``d_cur(q)`` is the query's current nearest-stop distance.
  A query outside ``RNN(v)`` satisfies ``dist(q, v) ≥ dist(q, nn(q)) ≥
  d_cur(q)`` and can never gain, so the sum is exact, not a bound.
  :class:`PreprocessResult` carries each table entry's term
  ``count(q) · (nn(q) − d)`` and an index of the entries by query, so
  selection keeps the terms current and folds a row with one
  ``np.add.accumulate`` (see :mod:`repro.core.selection`).

Query multiplicities are honoured by weighting each distinct node with
its count in the multiset ``Q``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, GraphError
from ..network.engine import QuerySearchRow, SearchEngine, engine_for
from ..obs import current_trace, span
from .utility import BRRInstance

_INF = math.inf


class RNNTable(NamedTuple):
    """The RNN sets of Algorithm 2 as a node-indexed CSR table.

    Node ``v``'s entries are ``queries[indptr[v]:indptr[v + 1]]`` with
    their distances ``dists[...]`` — the pairs ``(q, dist(q, v))`` with
    ``q ∈ RNN(v)``, in per-query append order (query order of the
    search, and settle order within a query).  Rows of nodes that are
    not reached candidates are empty.  The arrays are shared by every
    reader and never written: treat them as read-only.
    """

    indptr: np.ndarray  # int64, num_nodes + 1 row offsets
    queries: np.ndarray  # int64 query node per entry
    dists: np.ndarray  # float64 dist(q, v) per entry

    @classmethod
    def from_lists(
        cls, num_nodes: int, rnn: Dict[int, List[Tuple[int, float]]]
    ) -> "RNNTable":
        """The table holding ``rnn``'s lists, each row in list order."""
        lengths = np.zeros(num_nodes, dtype=np.int64)
        for node, entries in rnn.items():
            lengths[node] = len(entries)
        pairs = [pair for node in sorted(rnn) for pair in rnn[node]]
        return cls(
            row_offsets(lengths),
            np.array([q for q, _ in pairs], dtype=np.int64),
            np.array([d for _, d in pairs], dtype=np.float64),
        )


class UtilityOrder(NamedTuple):
    """The queue Algorithm 2 returns: every stop in ``(-U, id)`` order
    (decreasing initial utility, ties broken by node id), as arrays,
    plus the stop ids as a list."""

    utilities: np.ndarray  # float64, non-increasing
    stops: np.ndarray  # int64
    stop_list: List[int]


class RNNView(Mapping[int, List[Tuple[int, float]]]):
    """Read-only ``{candidate: [(query, dist), ...]}`` view of an
    :class:`RNNTable`: one key per non-empty row, in node id order, and
    a fresh list per lookup.  For tests, diagnostics and reports; the
    algorithm reads the arrays."""

    def __init__(self, table: RNNTable) -> None:
        self._table = table

    def _row(self, node: object) -> Tuple[int, int]:
        indptr = self._table.indptr
        if not isinstance(node, (int, np.integer)) or not 0 <= node < indptr.size - 1:
            return 0, 0
        return int(indptr[node]), int(indptr[node + 1])

    def __getitem__(self, node: int) -> List[Tuple[int, float]]:
        start, end = self._row(node)
        if start == end:
            raise KeyError(node)
        return list(
            zip(
                self._table.queries[start:end].tolist(),
                self._table.dists[start:end].tolist(),
            )
        )

    def __contains__(self, node: object) -> bool:
        start, end = self._row(node)
        return end > start

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(np.diff(self._table.indptr)).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(np.diff(self._table.indptr)))


@dataclass(eq=False)
class PreprocessResult:
    """Output of Algorithm 2.

    Attributes:
        nn_distance: for each distinct query node, its distance to the
            nearest *existing* stop ``dist(q, nn(q))``.
        table: the RNN sets as an :class:`RNNTable` — for each
            candidate stop ``v`` the pairs ``(q, dist(q, v))`` with the
            query in ``RNN(v)``, settled before ``nn(q)`` in the search.
        weights: per node, the query multiplicity ``count(q)`` as a
            float (``0.0`` at nodes holding no query).
        initial_utility: ``U({v})`` for every stop in
            ``S_new ∪ S_existing`` (walking gain for candidates,
            ``α · |routes(v)|`` for existing stops).
        searches: number of Dijkstra searches performed.
            :func:`preprocess_queries` runs one multi-source field
            search plus one query-rooted ball per distinct query node
            (``= 1 + len(nn_distance)``), and ``0`` when there are no
            query nodes at all (no field is built); the
            :func:`per_query_preprocess` oracle runs one search per
            distinct query node (``= len(nn_distance)``).
        settled_nodes: total nodes settled over all searches (the
            ``|Q| · T1`` term of Theorem 5).  The field settles every
            reachable node once, and each query ball settles its pruned
            reached set (``reachable + Σ |ball(q)|``); each oracle
            search settles its candidate prefix plus the terminating
            existing stop (``len(visited) + 1`` per query).  Both
            definitions count *nodes*, not implementation steps, so
            they are identical across kernel backends.

    Derived once per result, for selection (all read-only):
        utility_order: the stops in decreasing initial-utility order
            (:class:`UtilityOrder`), derived on first read — a result's
            utilities are final once it is returned.
        nearest: per node, ``dist(q, nn(q))`` (``inf`` at nodes holding
            no query).
        terms: per table entry, the gain term
            ``count(q) · (nn(q) − dist(q, v))``.
        query_indptr / query_entries: the table's entries grouped by
            query node, a CSR over node ids:
            ``query_entries[query_indptr[q]:query_indptr[q + 1]]`` are
            the positions of ``q``'s entries in the table.
    """

    nn_distance: Dict[int, float]
    table: RNNTable
    weights: np.ndarray
    initial_utility: Dict[int, float] = field(default_factory=dict)
    searches: int = 0
    settled_nodes: int = 0
    nearest: np.ndarray = field(init=False, repr=False)
    terms: np.ndarray = field(init=False, repr=False)
    query_indptr: np.ndarray = field(init=False, repr=False)
    query_entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        num_nodes = self.table.indptr.size - 1
        self.nearest = np.full(num_nodes, _INF)
        size = len(self.nn_distance)
        self.nearest[np.fromiter(self.nn_distance.keys(), np.int64, size)] = (
            np.fromiter(self.nn_distance.values(), np.float64, size)
        )
        queries = self.table.queries
        self.terms = self.weights[queries] * (self.nearest[queries] - self.table.dists)
        self.query_indptr = row_offsets(np.bincount(queries, minlength=num_nodes))
        self.query_entries = stable_order(queries)

    @property
    def rnn(self) -> RNNView:
        """The RNN sets as a read-only mapping ``{v: [(q, dist), ...]}``
        over the table (see :class:`RNNView`)."""
        return RNNView(self.table)

    def entries_of(self, nodes: np.ndarray) -> np.ndarray:
        """Table positions of every entry whose query is in ``nodes``
        (an int64 array of query nodes), grouped by node."""
        indptr = self.query_indptr
        return self.query_entries[_ranges(indptr[nodes], indptr[nodes + 1])]

    @cached_property
    def utility_order(self) -> UtilityOrder:
        """The stops of :attr:`initial_utility` in ``(-U, id)`` order
        (see :class:`UtilityOrder`), derived once."""
        table = self.initial_utility
        stops = np.fromiter(table.keys(), np.int64, len(table))
        utilities = np.fromiter(table.values(), np.float64, len(table))
        rank = np.lexsort((stops, -utilities))
        stops = stops[rank]
        return UtilityOrder(utilities[rank], stops, stops.tolist())


def preprocess_queries(
    instance: BRRInstance,
    *,
    engine: Optional[SearchEngine] = None,
) -> PreprocessResult:
    """Run Algorithm 2 on ``instance`` (the inverted, batched path; see
    the module docstring).

    Args:
        instance: the BRR instance.
        engine: the search engine to run the searches on; defaults to
            the instance network's shared engine.

    Returns:
        A :class:`PreprocessResult`; see its attribute docs.

    Raises:
        GraphError: if some query node cannot reach any existing stop
            (the instance is malformed — Definition 5 needs ``nn(q)``).
        ConfigurationError: if a candidate stop is also an existing
            stop (the utilities of lines 11-16 would silently overwrite
            each other).
    """
    if engine is None:
        engine = engine_for(instance.network)
    _check_disjoint_stops(instance)

    # Lines 1-10: the same table the per-query loop builds — same
    # floats, same per-candidate entry order — grouped from the
    # columnar search output by one stable sort (see
    # _group_by_candidate for the ordering argument).
    with span("preprocess.searches", queries=len(instance.query_counts)):
        nn_distance, table, searches, settled = _inverted_search(instance, engine)

    with span("preprocess.utilities"):
        # Lines 11-14: initial utilities of candidate stops, the left
        # fold of each candidate's terms.
        result = PreprocessResult(
            nn_distance,
            table,
            query_weights(instance),
            searches=searches,
            settled_nodes=settled,
        )
        gains = fold_rows(result.terms, table.indptr, instance.candidates)
        result.initial_utility = dict(zip(instance.candidates, gains.tolist()))
        result.initial_utility.update(_connectivity_utilities(instance))
    return result


def per_query_preprocess(
    instance: BRRInstance,
    *,
    engine: Optional[SearchEngine] = None,
) -> PreprocessResult:
    """The paper's literal Algorithm 2 loop: one early-terminated
    Dijkstra per distinct query node, merged pair by pair into python
    lists and folded entry by entry, then stored as an
    :class:`RNNTable`.

    This is the oracle :func:`preprocess_queries` is checked and timed
    against — same arguments, same errors, equal output (only the
    documented ``searches``/``settled_nodes`` accounting differs).  No
    config field, flag or environment variable selects it.
    """
    if engine is None:
        engine = engine_for(instance.network)
    _check_disjoint_stops(instance)
    counts = instance.query_counts
    rows = query_search_rows(
        engine,
        list(counts),
        instance.is_existing,
        instance.is_candidate,
        phase="preprocess",
    )
    nn_distance: Dict[int, float] = {}
    rnn: Dict[int, List[Tuple[int, float]]] = {}
    for query_node, _nn_stop, nn_dist, visited in rows:
        nn_distance[query_node] = nn_dist
        for candidate, dist in visited:
            rnn.setdefault(candidate, []).append((query_node, dist))
    utilities: Dict[int, float] = {}
    for candidate, entries in rnn.items():
        gain = 0.0
        for query_node, dist in entries:
            gain += counts[query_node] * (nn_distance[query_node] - dist)
        utilities[candidate] = gain
    for candidate in instance.candidates:
        utilities.setdefault(candidate, 0.0)
    utilities.update(_connectivity_utilities(instance))
    return PreprocessResult(
        nn_distance,
        RNNTable.from_lists(instance.network.num_nodes, rnn),
        query_weights(instance),
        utilities,
        searches=len(rows),
        settled_nodes=sum(len(visited) + 1 for _q, _s, _d, visited in rows),
    )


def query_search_rows(
    engine: SearchEngine,
    nodes: Sequence[int],
    is_existing: Sequence[bool],
    is_candidate: Sequence[bool],
    *,
    phase: str,
) -> List[QuerySearchRow]:
    """The paper's per-query search for each of ``nodes``, in order:
    one :meth:`SearchEngine.query_search` row per node.  Shared by the
    :func:`per_query_preprocess` oracle and the added-node searches of
    :func:`repro.core.update.update_preprocess`."""
    rows: List[QuerySearchRow] = []
    for node in nodes:
        nn_stop, nn_dist, visited = engine.query_search(
            node, is_existing, is_candidate, phase=phase
        )
        rows.append((node, nn_stop, nn_dist, visited))
    return rows


def query_weights(instance: BRRInstance) -> np.ndarray:
    """Per node, the multiplicity of its queries as a float (``0.0``
    where none): ``count * Δ`` rounds the same whether ``count`` is an
    int or its exact float."""
    counts = instance.query_counts
    weights = np.zeros(instance.network.num_nodes)
    weights[np.fromiter(counts.keys(), np.int64, len(counts))] = np.fromiter(
        counts.values(), np.float64, len(counts)
    )
    return weights


def fold_rows(
    values: np.ndarray, indptr: np.ndarray, rows: Sequence[int]
) -> np.ndarray:
    """The left fold ``0.0 + v[s] + v[s + 1] + ...`` of each row's
    slice ``values[indptr[r]:indptr[r + 1]]``, as a float64 array
    (``0.0`` for an empty row).

    Each fold is ``np.add.accumulate`` over the row, read at the row's
    last entry: the ufunc is sequential (``out[i] = out[i-1] + in[i]``),
    so the result is bit-identical to the python loop
    ``gain += term`` over the same terms in the same order."""
    ids = np.asarray(rows, dtype=np.int64)
    out = np.zeros(ids.size)
    accumulate = np.add.accumulate
    bounds = zip(indptr[ids].tolist(), indptr[ids + 1].tolist())
    for i, (start, end) in enumerate(bounds):
        if end > start:
            out[i] = accumulate(values[start:end])[-1]
    return out


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative int64
    ``keys`` (node ids), as least-significant-first passes over 16-bit
    digits: numpy radix-sorts 16-bit keys, so each pass is linear."""
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    top = int(keys.max()) if keys.size else 0
    shift = 16
    while top >> shift:
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(starts[i], ends[i])`` over ``i``."""
    lengths = ends - starts
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return offsets + np.arange(offsets.size, dtype=np.int64)


def row_offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR row offsets for rows of ``lengths``."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def _connectivity_utilities(instance: BRRInstance) -> Dict[int, float]:
    """Lines 15-16: ``α · degree`` for every existing stop."""
    alpha, transit = instance.alpha, instance.transit
    return {stop: alpha * transit.degree(stop) for stop in instance.existing_stops}


def _inverted_search(
    instance: BRRInstance, engine: SearchEngine
) -> Tuple[Dict[int, float], RNNTable, int, int]:
    """One multi-source label field from the existing stops hands every
    query its truncation radius, then one batched query-rooted ball per
    distinct query node, then a columnar regroup by candidate.

    Returns ``(nn_distance, table, searches, settled_nodes)``."""
    nodes = list(instance.query_counts)
    num_nodes = instance.network.num_nodes
    if not nodes:
        empty = np.zeros(0, dtype=np.int64)
        return {}, _group_by_candidate(num_nodes, empty, empty, np.zeros(0)), 0, 0
    active = current_trace()
    stops = [i for i, flag in enumerate(instance.is_existing) if flag]
    with span("preprocess.labels", stops=len(stops), queries=len(nodes)):
        label_field = engine.multi_source_labels(stops, phase="preprocess")
        nn_forward = label_field.forward_distances(nodes)
        for node, nn_dist in zip(nodes, nn_forward):
            if nn_dist == _INF:
                raise GraphError(
                    f"no existing bus stop reachable from query node {node}"
                )
        if active is not None:
            active.metrics.counter("preprocess.labels.sources").inc(len(stops))
            active.metrics.counter("preprocess.labels.reachable").inc(
                label_field.reachable
            )
    node_ids = np.asarray(nodes, dtype=np.int64)
    labels = label_field.label[node_ids].tolist()
    with span("preprocess.balls", queries=len(nodes)):
        member_counts, member_nodes, member_dists, settled = engine.batch_query_rows(
            nodes, nn_forward, labels, instance.is_candidate, phase="preprocess"
        )
        ball_nodes = int(settled.sum())
        if active is not None:
            active.metrics.counter("preprocess.balls.count").inc(len(nodes))
            active.metrics.counter("preprocess.balls.settled").inc(ball_nodes)
    member_queries = np.repeat(node_ids, member_counts)
    table = _group_by_candidate(num_nodes, member_queries, member_nodes, member_dists)
    return (
        dict(zip(nodes, nn_forward)),
        table,
        1 + len(nodes),
        label_field.reachable + ball_nodes,
    )


def _group_by_candidate(
    num_nodes: int,
    member_queries: np.ndarray,
    member_nodes: np.ndarray,
    member_dists: np.ndarray,
) -> RNNTable:
    """Regroup the row-major columnar members by candidate stop.

    The flat member stream arrives in exactly the order the per-query
    merge loop iterates pairs: query-major (``nodes`` order), per-query
    settle order within a row.  A *stable* sort by candidate id
    therefore keeps each candidate's pairs in per-query append order —
    and the sorted stream *is* the table, with row offsets from the
    per-candidate counts.
    """
    order = stable_order(member_nodes)
    return RNNTable(
        row_offsets(np.bincount(member_nodes, minlength=num_nodes)),
        member_queries[order],
        member_dists[order],
    )


def _check_disjoint_stops(instance: BRRInstance) -> None:
    """Defence in depth for the utility table: a node that is both a
    candidate and an existing stop would have its walking-gain entry
    silently overwritten by the ``α · degree`` loop above.
    :class:`BRRInstance` validates explicit candidate sets, but masks
    can reach here by other construction paths."""
    overlap = [
        node
        for node in instance.candidates
        if instance.is_existing[node]
    ]
    if overlap:
        raise ConfigurationError(
            "candidate stops must be disjoint from existing stops; "
            f"overlap: {sorted(overlap)[:10]}"
        )
