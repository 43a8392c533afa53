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
The batched search returns *columnar* output, and the merge and
utility folds below stay columnar too (stable grouping by candidate,
exact left-fold accumulation), so the path is array-native end to end.

:func:`per_query_preprocess` keeps the paper's literal loop as the
oracle: the equivalence suite asserts that both functions produce equal
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

Query multiplicities are honoured by weighting each distinct node with
its count in the multiset ``Q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, GraphError
from ..network.engine import QuerySearchRow, SearchEngine, engine_for
from ..obs import current_trace, span
from .utility import BRRInstance

_INF = math.inf


@dataclass
class PreprocessResult:
    """Output of Algorithm 2.

    Attributes:
        nn_distance: for each distinct query node, its distance to the
            nearest *existing* stop ``dist(q, nn(q))``.
        rnn: for each candidate stop ``v``, the list of
            ``(query_node, dist(q, v))`` pairs with the query in
            ``RNN(v)`` — settled before ``nn(q)`` in the search.
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
    """

    nn_distance: Dict[int, float] = field(default_factory=dict)
    rnn: Dict[int, List[Tuple[int, float]]] = field(default_factory=dict)
    initial_utility: Dict[int, float] = field(default_factory=dict)
    searches: int = 0
    settled_nodes: int = 0

    def utility_order(self) -> List[Tuple[float, int]]:
        """``(U(v), v)`` pairs in decreasing utility order — the queue
        Algorithm 2 returns (ties broken by node id for determinism)."""
        return sorted(
            ((u, v) for v, u in self.initial_utility.items()),
            key=lambda item: (-item[0], item[1]),
        )


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
    result = PreprocessResult()

    # Lines 1-10: the same table the per-query loop builds — same
    # floats, same RNN list order, same dict insertion order — merged
    # from the columnar search output with array passes instead of a
    # per-pair python loop (see _group_by_candidate for the ordering
    # argument).
    with span("preprocess.searches", queries=len(instance.query_counts)):
        table = _inverted_search(instance, engine, result)
        result.nn_distance.update(zip(table.nodes, table.nn_forward))
        for candidate, start, end in table.groups:
            result.rnn[candidate] = list(
                zip(table.qs[start:end], table.ds[start:end])
            )

    with span("preprocess.utilities"):
        # Lines 11-14: initial utilities of candidate stops.
        _inverted_utilities(table, instance, result)
        _fill_utilities(instance, result)

    return result


def per_query_preprocess(
    instance: BRRInstance,
    *,
    engine: Optional[SearchEngine] = None,
) -> PreprocessResult:
    """The paper's literal Algorithm 2 loop: one early-terminated
    Dijkstra per distinct query node, merged pair by pair.

    This is the oracle :func:`preprocess_queries` is checked and timed
    against — same arguments, same errors, equal output (only the
    documented ``searches``/``settled_nodes`` accounting differs).  No
    config field, flag or environment variable selects it.
    """
    if engine is None:
        engine = engine_for(instance.network)
    _check_disjoint_stops(instance)
    result = PreprocessResult()
    counts = instance.query_counts
    rows = query_search_rows(
        engine,
        list(counts),
        instance.is_existing,
        instance.is_candidate,
        phase="preprocess",
    )
    result.searches = len(rows)
    result.settled_nodes = sum(len(visited) + 1 for _q, _s, _d, visited in rows)
    for query_node, _nn_stop, nn_dist, visited in rows:
        result.nn_distance[query_node] = nn_dist
        for candidate, dist in visited:
            result.rnn.setdefault(candidate, []).append((query_node, dist))
    for candidate, entries in result.rnn.items():
        gain = 0.0
        for query_node, dist in entries:
            gain += counts[query_node] * (result.nn_distance[query_node] - dist)
        result.initial_utility[candidate] = gain
    _fill_utilities(instance, result)
    return result


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


def _fill_utilities(instance: BRRInstance, result: PreprocessResult) -> None:
    """The rest of lines 11-16: zero gain for candidates no search
    reached, then ``α · degree`` for every existing stop."""
    for candidate in instance.candidates:
        result.initial_utility.setdefault(candidate, 0.0)
    for stop in instance.existing_stops:
        result.initial_utility[stop] = instance.alpha * instance.transit.degree(stop)


@dataclass
class _InvertedTable:
    """Columnar Algorithm 2 table from the inverted search.

    ``qs``/``ds`` hold the flattened ``(query_node, dist)`` member
    pairs *grouped by candidate*; ``groups`` lists one
    ``(candidate, start, end)`` slice per candidate in first-appearance
    order over the per-query pair stream — exactly the dict insertion
    order the per-query merge produces — with each group's entries in
    query order (and per-query settle order within a query), exactly
    the per-query append order.
    """

    nodes: List[int]
    nn_forward: List[float]
    groups: List[Tuple[int, int, int]]
    qs: List[int]
    ds: List[float]


def _inverted_search(
    instance: BRRInstance,
    engine: SearchEngine,
    result: PreprocessResult,
) -> _InvertedTable:
    """One multi-source label field from the existing stops hands every
    query its truncation radius, then one batched query-rooted ball per
    distinct query node, then a columnar regroup by candidate."""
    nodes = list(instance.query_counts)
    if not nodes:
        return _InvertedTable([], [], [], [], [])
    active = current_trace()
    stops = [i for i, flag in enumerate(instance.is_existing) if flag]
    with span("preprocess.labels", stops=len(stops), queries=len(nodes)):
        label_field = engine.multi_source_labels(stops, phase="preprocess")
        nn_forward = engine.label_forward_distances(
            label_field, nodes, phase="preprocess"
        )
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
    labels = [label_field.label[node] for node in nodes]
    with span("preprocess.balls", queries=len(nodes)):
        member_counts, member_nodes, member_dists, settled = engine.batch_query_rows(
            nodes, nn_forward, labels, instance.is_candidate, phase="preprocess"
        )
        ball_nodes = sum(settled)
        if active is not None:
            active.metrics.counter("preprocess.balls.count").inc(len(nodes))
            active.metrics.counter("preprocess.balls.settled").inc(ball_nodes)
    result.searches += 1 + len(nodes)
    result.settled_nodes += label_field.reachable + ball_nodes
    return _group_by_candidate(
        nodes, nn_forward, member_counts, member_nodes, member_dists
    )


def _group_by_candidate(
    nodes: List[int],
    nn_forward: List[float],
    member_counts: List[int],
    member_nodes: List[int],
    member_dists: List[float],
) -> _InvertedTable:
    """Regroup the row-major columnar members by candidate stop.

    The flat member stream arrives in exactly the order the per-query
    merge loop iterates pairs: query-major (``nodes`` order), per-query
    settle order within a row.  A *stable* argsort by candidate id
    therefore keeps each candidate's pairs in per-query append order,
    and sorting the groups by their first flat position reproduces the
    per-query ``rnn`` dict's first-appearance insertion order — both
    orderings land bit-for-bit without touching a single pair in
    python.
    """
    if not member_nodes:
        return _InvertedTable(nodes, nn_forward, [], [], [])
    row_of = np.repeat(
        np.arange(len(nodes), dtype=np.int64),
        np.asarray(member_counts, dtype=np.int64),
    )
    cand = np.asarray(member_nodes, dtype=np.int64)
    dist = np.asarray(member_dists, dtype=np.float64)
    order = np.argsort(cand, kind="stable")
    sorted_cand = cand[order]
    starts = np.flatnonzero(
        np.concatenate(
            (np.ones(1, dtype=bool), sorted_cand[1:] != sorted_cand[:-1])
        )
    )
    ends = np.append(starts[1:], sorted_cand.size)
    first_seen = np.argsort(order[starts], kind="stable")
    node_arr = np.asarray(nodes, dtype=np.int64)
    qs = node_arr[row_of[order]].tolist()
    ds = dist[order].tolist()
    groups = [
        (int(sorted_cand[starts[g]]), int(starts[g]), int(ends[g]))
        for g in first_seen.tolist()
    ]
    return _InvertedTable(nodes, nn_forward, groups, qs, ds)


def _inverted_utilities(
    table: _InvertedTable,
    instance: BRRInstance,
    result: PreprocessResult,
) -> None:
    """Lines 11-14 over the columnar table: per-pair gain terms in one
    vectorized pass, then one exact **left-fold** per candidate group
    via ``np.add.accumulate`` — the ufunc is defined sequentially
    (``out[i] = out[i-1] + in[i]``), so each group's final prefix sum
    is bit-identical to the oracle's ``gain += term`` python fold over
    the same terms in the same order."""
    if not table.groups:
        return
    counts = instance.query_counts
    num_nodes = instance.network.num_nodes
    weight = np.zeros(num_nodes)
    nn = np.zeros(num_nodes)
    for node in table.nodes:
        weight[node] = counts[node]
        nn[node] = result.nn_distance[node]
    qs = np.asarray(table.qs, dtype=np.int64)
    terms = weight[qs] * (nn[qs] - np.asarray(table.ds, dtype=np.float64))
    for candidate, start, end in table.groups:
        if end - start == 1:
            gain = float(terms[start])
        else:
            gain = float(np.add.accumulate(terms[start:end])[-1])
        result.initial_utility[candidate] = gain


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
