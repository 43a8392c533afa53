"""Incremental demand updates for the Algorithm 2 preprocessing.

The paper's motivation singles out practitioners who "fine-tune some
parameters or adjust the input (e.g., the demand of different targeted
areas) frequently".  Parameter changes (``K``, ``C``, ``α``) already
reuse the preprocessing; this module makes *demand* changes cheap too:

* a query node whose multiplicity changes only rescales its existing
  contributions (no search);
* a brand-new distinct query node needs exactly one early-terminated
  Dijkstra (the Algorithm 2 search);
* a fully removed node has its RNN entries retired.

The update runs in time proportional to the *changed* demand, not the
whole multiset — the benchmark shows the gap against full recomputation.
The added-node searches therefore run the paper's per-query search
(:func:`~repro.core.preprocess.query_search_rows`), whose cost scales
with the number of added nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..demand.query import QuerySet
from ..network.engine import engine_for
from ..obs import span
from .preprocess import PreprocessResult, query_search_rows
from .utility import BRRInstance


@dataclass
class UpdateStats:
    """What the incremental update had to do.

    Attributes:
        added_nodes: distinct query nodes that needed a fresh search.
        removed_nodes: distinct nodes fully retired.
        rescaled_nodes: nodes whose multiplicity merely changed.
        searches: Dijkstra searches performed (== ``added_nodes``).
    """

    added_nodes: int = 0
    removed_nodes: int = 0
    rescaled_nodes: int = 0
    searches: int = 0


def update_preprocess(
    instance: BRRInstance,
    preprocess: PreprocessResult,
    new_queries: QuerySet,
) -> Tuple[BRRInstance, PreprocessResult, UpdateStats]:
    """Produce the instance + preprocessing for a changed demand.

    Args:
        instance: the instance ``preprocess`` was computed for.
        preprocess: a full Algorithm 2 result for ``instance``.
        new_queries: the updated demand multiset (same road network).

    Returns:
        ``(new_instance, new_preprocess, stats)``.  The inputs are not
        mutated; the output preprocessing is value-identical to running
        :func:`repro.core.preprocess.preprocess_queries` from scratch on
        the new instance (the test suite asserts this).
    """
    with span("update") as update_span:
        new_instance, result, stats = _apply_update(
            instance, preprocess, new_queries
        )
        update_span.set(
            rescaled=stats.rescaled_nodes,
            removed=stats.removed_nodes,
            added=stats.added_nodes,
            searches=stats.searches,
        )
    return new_instance, result, stats


def _apply_update(
    instance: BRRInstance,
    preprocess: PreprocessResult,
    new_queries: QuerySet,
) -> Tuple[BRRInstance, PreprocessResult, UpdateStats]:
    new_instance = BRRInstance(
        instance.transit,
        new_queries,
        candidates=instance.candidates,
        alpha=instance.alpha,
    )
    old_counts = instance.query_counts
    new_counts = new_instance.query_counts
    stats = UpdateStats()

    # Copy the structures we will edit.
    result = PreprocessResult(
        nn_distance=dict(preprocess.nn_distance),
        rnn={v: list(entries) for v, entries in preprocess.rnn.items()},
        initial_utility=dict(preprocess.initial_utility),
        searches=preprocess.searches,
        settled_nodes=preprocess.settled_nodes,
    )

    # Reverse index: query node -> [(candidate, dist)], for O(changed)
    # utility adjustments and entry retirement.
    reverse: Dict[int, List[Tuple[int, float]]] = {}
    for candidate, entries in result.rnn.items():
        for query_node, dist in entries:
            reverse.setdefault(query_node, []).append((candidate, dist))

    # Pass 1 — surviving nodes: rescale contributions by the count delta
    # and collect fully-removed nodes for one batched retirement sweep.
    retired: List[int] = []
    for node, old in old_counts.items():
        new = new_counts.get(node, 0)
        if old == new:
            continue
        delta = new - old
        nn_dist = result.nn_distance[node]
        for candidate, dist in reverse.get(node, []):
            result.initial_utility[candidate] += delta * (nn_dist - dist)
        if new == 0:
            retired.append(node)
            stats.removed_nodes += 1
        else:
            stats.rescaled_nodes += 1

    # Pass 2 — batched retirement: filter each affected candidate's RNN
    # list exactly once against the whole retired set (the per-node
    # rebuild was quadratic in the removal size).  A candidate whose
    # list empties has lost every contributor, so its utility is pinned
    # to exactly 0.0 rather than left to the dust clamp below.
    if retired:
        retired_set = frozenset(retired)
        affected = dict.fromkeys(
            candidate
            for node in retired
            for candidate, _ in reverse.get(node, [])
        )
        for candidate in affected:
            survivors = [
                entry for entry in result.rnn[candidate] if entry[0] not in retired_set
            ]
            if survivors:
                result.rnn[candidate] = survivors
            else:
                del result.rnn[candidate]
                result.initial_utility[candidate] = 0.0
        for node in retired:
            reverse.pop(node, None)
            del result.nn_distance[node]

    # Pass 3 — brand-new distinct nodes: one Algorithm 2 search each,
    # accounted to the engine's `update` profile.
    added = [node for node in new_counts if node not in old_counts]
    if added:
        rows = query_search_rows(
            engine_for(new_instance.network),
            added,
            new_instance.is_existing,
            new_instance.is_candidate,
            phase="update",
        )
        for node, _nn_stop, nn_dist, visited in rows:
            new = new_counts[node]
            result.nn_distance[node] = nn_dist
            result.searches += 1
            result.settled_nodes += len(visited) + 1
            stats.added_nodes += 1
            stats.searches += 1
            for candidate, dist in visited:
                result.rnn.setdefault(candidate, []).append((node, dist))
                reverse.setdefault(node, []).append((candidate, dist))
                result.initial_utility[candidate] = (
                    result.initial_utility.get(candidate, 0.0)
                    + new * (nn_dist - dist)
                )

    # Clamp float dust: utilities are non-negative by construction.
    for candidate in list(result.initial_utility):
        if new_instance.is_candidate[candidate]:
            value = result.initial_utility[candidate]
            if -1e-9 < value < 0.0:
                result.initial_utility[candidate] = 0.0

    return new_instance, result, stats
