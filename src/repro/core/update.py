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

The update's python work is proportional to the *changed* demand, not
the whole multiset: the changed queries' table entries come from the
preprocessing's by-query index, and the RNN table's arrays are rebuilt
by a few vectorized passes (``np.delete`` of the retired entries,
``np.insert`` of the added ones at the ends of their rows) — the input
is never written.  The utilities of the rows those entries touch are
refolded from the new table's terms with Algorithm 2's own left fold,
so a utility depends only on its row's entries: an update followed by
its inverse restores every utility bit for bit.  The added-node
searches run the paper's per-query search
(:func:`~repro.core.preprocess.query_search_rows`), whose cost scales
with the number of added nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..demand.query import QuerySet
from ..network.engine import engine_for
from ..obs import span
from .preprocess import (
    PreprocessResult,
    RNNTable,
    fold_rows,
    query_search_rows,
    query_weights,
    row_offsets,
    stable_order,
)
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
    table = preprocess.table
    nn_distance = dict(preprocess.nn_distance)

    # Pass 1 — surviving nodes whose multiplicity changed: their terms
    # move, and the fully removed ones are retired.
    changed: List[int] = []
    retired: List[int] = []
    for node, old in old_counts.items():
        new = new_counts.get(node, 0)
        if old == new:
            continue
        changed.append(node)
        if new == 0:
            retired.append(node)
            stats.removed_nodes += 1
        else:
            stats.rescaled_nodes += 1
    changed_entries = preprocess.entries_of(np.array(changed, dtype=np.int64))
    touched = _owners(table, changed_entries)

    # Pass 2 — batched retirement: drop every retired entry at once.
    removed = np.sort(preprocess.entries_of(np.array(retired, dtype=np.int64)))
    lengths = np.diff(table.indptr) - np.bincount(
        _owners(table, removed), minlength=table.indptr.size - 1
    )
    for node in retired:
        del nn_distance[node]

    # Pass 3 — brand-new distinct nodes: one Algorithm 2 search each,
    # accounted to the engine's `update` profile; their entries join
    # the ends of their candidates' rows in search order.
    added = [node for node in new_counts if node not in old_counts]
    searches = settled = 0
    added_entries: List[Tuple[int, int, float]] = []
    if added:
        rows = query_search_rows(
            engine_for(new_instance.network),
            added,
            new_instance.is_existing,
            new_instance.is_candidate,
            phase="update",
        )
        for node, _nn_stop, nn_dist, visited in rows:
            nn_distance[node] = nn_dist
            searches += 1
            settled += len(visited) + 1
            added_entries.extend((candidate, node, dist) for candidate, dist in visited)
    stats.added_nodes = stats.searches = searches

    result = PreprocessResult(
        nn_distance,
        _edited_table(table, removed, lengths, added_entries),
        query_weights(new_instance),
        dict(preprocess.initial_utility),
        searches=preprocess.searches + searches,
        settled_nodes=preprocess.settled_nodes + settled,
    )
    # Refold every row whose terms moved — the changed queries' old
    # rows and the rows that gained entries — from the new result's
    # terms, the same left fold Algorithm 2 runs: a row's utility is
    # then a function of its entries alone, so an update followed by
    # its inverse restores every utility bit for bit.
    refold = np.unique(
        np.concatenate(
            (touched, np.array([c for c, _, _ in added_entries], dtype=np.int64))
        )
    )
    gains = fold_rows(result.terms, result.table.indptr, refold)
    result.initial_utility.update(zip(refold.tolist(), gains.tolist()))
    return new_instance, result, stats


def _owners(table: RNNTable, entries: np.ndarray) -> np.ndarray:
    """The candidate whose row holds each table position."""
    return np.searchsorted(table.indptr, entries, side="right") - 1


def _edited_table(
    table: RNNTable,
    removed: np.ndarray,
    lengths: np.ndarray,
    added_entries: List[Tuple[int, int, float]],
) -> RNNTable:
    """``table`` without the sorted positions ``removed`` (leaving rows
    of ``lengths``) and with ``added_entries`` — ``(candidate, query,
    dist)`` in search order — appended to their rows, in a new table.

    ``np.insert`` keeps values bound for one position in the order
    given, so a stable grouping of the added entries by candidate lands
    each at the end of its row in search order."""
    queries = np.delete(table.queries, removed)
    dists = np.delete(table.dists, removed)
    kept_indptr = row_offsets(lengths)
    if added_entries:
        candidates = np.array([c for c, _, _ in added_entries], dtype=np.int64)
        order = stable_order(candidates)
        at = kept_indptr[candidates[order] + 1]
        added_queries = np.array([q for _, q, _ in added_entries], dtype=np.int64)
        added_dists = np.array([d for _, _, d in added_entries], dtype=np.float64)
        queries = np.insert(queries, at, added_queries[order])
        dists = np.insert(dists, at, added_dists[order])
        lengths = lengths + np.bincount(candidates, minlength=lengths.size)
    return RNNTable(row_offsets(lengths), queries, dists)
