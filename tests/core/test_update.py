"""Unit tests for incremental demand updates: the updated preprocessing
must be value-identical to recomputing from scratch."""

import numpy as np
import pytest

from repro.core.preprocess import preprocess_queries
from repro.core.update import update_preprocess
from repro.demand.query import QuerySet

from ..conftest import V1, V2, V3, V4, V5, V6, V7, V8


def _assert_equivalent(new_instance, updated, scratch):
    assert set(updated.nn_distance) == set(scratch.nn_distance)
    for node, dist in scratch.nn_distance.items():
        assert updated.nn_distance[node] == pytest.approx(dist)
    for v in set(updated.initial_utility) | set(scratch.initial_utility):
        assert updated.initial_utility.get(v, 0.0) == pytest.approx(
            scratch.initial_utility.get(v, 0.0), abs=1e-9
        )
    assert set(updated.rnn) == set(scratch.rnn)
    for candidate in scratch.rnn:
        assert sorted(updated.rnn[candidate]) == pytest.approx(
            sorted(scratch.rnn[candidate])
        )


def _update_and_check(toy_instance, new_nodes, name="updated"):
    pre = preprocess_queries(toy_instance)
    new_queries = QuerySet(toy_instance.network, new_nodes, name=name)
    new_instance, updated, stats = update_preprocess(
        toy_instance, pre, new_queries
    )
    scratch = preprocess_queries(new_instance)
    _assert_equivalent(new_instance, updated, scratch)
    return new_instance, updated, stats, pre


class TestEquivalence:
    def test_add_new_distinct_node(self, toy_instance):
        # original Q = {v1,v1,v1,v6,v7,v8}; add v5 (new distinct node)
        _, _, stats, _ = _update_and_check(
            toy_instance, [V1, V1, V1, V6, V7, V8, V5]
        )
        assert stats.added_nodes == 1
        assert stats.searches == 1

    def test_increase_multiplicity(self, toy_instance):
        _, _, stats, _ = _update_and_check(
            toy_instance, [V1, V1, V1, V6, V6, V6, V7, V8]
        )
        assert stats.added_nodes == 0
        assert stats.searches == 0
        assert stats.rescaled_nodes == 1

    def test_remove_node_entirely(self, toy_instance):
        _, _, stats, _ = _update_and_check(toy_instance, [V1, V1, V1, V6, V8])
        assert stats.removed_nodes == 1
        assert stats.searches == 0

    def test_mixed_update(self, toy_instance):
        _, _, stats, _ = _update_and_check(toy_instance, [V1, V6, V6, V5, V8])
        assert stats.added_nodes == 1    # v5
        assert stats.removed_nodes == 1  # v7
        assert stats.rescaled_nodes >= 1  # v1 down, v6 up

    def test_identical_demand_no_work(self, toy_instance):
        _, _, stats, _ = _update_and_check(
            toy_instance, [V1, V1, V1, V6, V7, V8]
        )
        assert stats.searches == 0
        assert stats.added_nodes == stats.removed_nodes == 0
        assert stats.rescaled_nodes == 0

    def test_complete_replacement(self, toy_instance):
        _, _, stats, _ = _update_and_check(toy_instance, [V5, V5, V2])
        assert stats.added_nodes == 2     # v5 and v2
        assert stats.removed_nodes == 4   # v1, v6, v7, v8


class TestDownstreamUse:
    def test_selection_agrees_with_scratch(self, toy_instance):
        """Running EBRR's selection on the updated preprocessing gives
        the same stops as on a from-scratch preprocessing."""
        from repro.core.config import EBRRConfig
        from repro.core.selection import run_selection

        pre = preprocess_queries(toy_instance)
        new_queries = QuerySet(
            toy_instance.network, [V6, V6, V7, V7, V8], name="shifted"
        )
        new_instance, updated, _ = update_preprocess(
            toy_instance, pre, new_queries
        )
        scratch = preprocess_queries(new_instance)
        config = EBRRConfig(
            max_stops=4, max_adjacent_cost=4.0, alpha=1.0, seed_stop=V1
        )
        a = run_selection(new_instance, updated, config)
        b = run_selection(new_instance, scratch, config)
        assert a.selected == b.selected

    def test_update_cheaper_than_recompute_on_city(self, small_city):
        """One changed node -> one search, versus |distinct Q| searches
        for the scratch run."""
        instance = small_city.instance(alpha=25.0)
        pre = preprocess_queries(instance)
        nodes = list(instance.queries.nodes)
        # nudge the demand: drop one occurrence, add a fresh node
        unused = next(
            v for v in instance.candidates
            if v not in instance.query_counts
        )
        new_queries = QuerySet(instance.network, nodes[1:] + [unused])
        _, updated, stats = update_preprocess(instance, pre, new_queries)
        assert stats.searches <= 1
        assert updated.searches <= pre.searches + 1

    def test_inputs_not_mutated(self, toy_instance):
        pre = preprocess_queries(toy_instance)
        before_utilities = dict(pre.initial_utility)
        before_rnn_sizes = {v: len(e) for v, e in pre.rnn.items()}
        new_queries = QuerySet(toy_instance.network, [V6, V5])
        update_preprocess(toy_instance, pre, new_queries)
        assert pre.initial_utility == before_utilities
        assert {v: len(e) for v, e in pre.rnn.items()} == before_rnn_sizes

    def test_input_arrays_not_modified(self, small_city):
        """Rescaled, retired and added queries at once: every array of
        the input table and its derived state keeps its values."""
        instance = small_city.instance(alpha=25.0)
        pre = preprocess_queries(instance)
        arrays = {
            "indptr": pre.table.indptr,
            "queries": pre.table.queries,
            "dists": pre.table.dists,
            "weights": pre.weights,
            "nearest": pre.nearest,
            "terms": pre.terms,
            "query_indptr": pre.query_indptr,
            "query_entries": pre.query_entries,
        }
        before = {name: array.copy() for name, array in arrays.items()}
        nodes = sorted(set(instance.queries.nodes))
        unused = [v for v in instance.candidates if v not in instance.query_counts]
        changed = nodes[2:] + nodes[2:4] + unused[:3]
        _, updated, stats = update_preprocess(
            instance, pre, QuerySet(instance.network, changed)
        )
        assert stats.removed_nodes and stats.rescaled_nodes and stats.added_nodes
        for name, array in arrays.items():
            assert np.array_equal(array, before[name]), name
            assert array.dtype == before[name].dtype, name
        assert updated.table.queries is not pre.table.queries


class TestBulkRetirement:
    """The batched retirement sweep: equivalence with from-scratch after
    a *bulk* removal, exact-0.0 pinning of fully-retired candidates, and
    the parallel added-node path."""

    def test_bulk_removal_matches_scratch(self, small_city):
        instance = small_city.instance(alpha=25.0)
        pre = preprocess_queries(instance)
        nodes = list(instance.queries.nodes)
        survivors = sorted(set(nodes))[: max(2, len(set(nodes)) // 4)]
        kept = [n for n in nodes if n in set(survivors)]
        new_queries = QuerySet(instance.network, kept, name="bulk-removed")
        new_instance, updated, stats = update_preprocess(
            instance, pre, new_queries
        )
        assert stats.searches == 0
        assert stats.removed_nodes == len(set(nodes)) - len(set(kept))
        scratch = preprocess_queries(new_instance)
        _assert_equivalent(new_instance, updated, scratch)

    def test_retired_candidates_pinned_to_exact_zero(self, small_city):
        """A candidate whose whole RNN set is retired must report a
        utility of exactly 0.0 (not dust near zero): downstream
        threshold pruning and the utility queue compare these values."""
        instance = small_city.instance(alpha=25.0)
        pre = preprocess_queries(instance)
        new_queries = QuerySet(
            instance.network, [list(instance.queries.nodes)[0]], name="one"
        )
        new_instance, updated, _ = update_preprocess(instance, pre, new_queries)
        emptied = [
            v for v in pre.rnn
            if v not in updated.rnn and new_instance.is_candidate[v]
        ]
        assert emptied, "expected some candidate to lose all contributors"
        for candidate in emptied:
            value = updated.initial_utility[candidate]
            assert value == 0.0
            assert str(value) == "0.0"  # exactly +0.0, not -0.0 or dust


class TestInverseUpdate:
    def test_update_then_inverse_restores_exactly(self, small_city):
        """An update followed by its inverse restores the utilities and
        the table bit for bit: every row the update touches is refolded
        from its entries, so no float drift survives the round trip."""
        instance = small_city.instance(alpha=25.0)
        pre = preprocess_queries(instance)
        nodes = list(instance.queries.nodes)
        unused = next(
            v for v in instance.candidates if v not in instance.query_counts
        )
        grown, updated, stats = update_preprocess(
            instance, pre, QuerySet(instance.network, nodes + [196, 359, unused])
        )
        assert stats.rescaled_nodes == 2 and stats.added_nodes == 1
        _, restored, stats = update_preprocess(
            grown, updated, QuerySet(instance.network, nodes)
        )
        assert stats.rescaled_nodes == 2 and stats.removed_nodes == 1
        assert restored.initial_utility == pre.initial_utility
        assert restored.nn_distance == pre.nn_distance
        for a, b in zip(restored.table, pre.table):
            assert a.dtype == b.dtype and np.array_equal(a, b)
