"""Unit tests for Algorithm 2 (query preprocessing) — Example 7."""

import numpy as np
import pytest

from repro.core.preprocess import per_query_preprocess, preprocess_queries, stable_order

from ..conftest import V1, V2, V3, V4, V5, V6, V7, V8


@pytest.fixture
def pre(toy_instance):
    return preprocess_queries(toy_instance)


class TestExample7:
    def test_nearest_existing_stops(self, pre):
        """nn(v6)=v2@7, nn(v7)=v2@11, nn(v8)=v2@8, nn(v1)=v1@0."""
        assert pre.nn_distance[V6] == pytest.approx(7.0)
        assert pre.nn_distance[V7] == pytest.approx(11.0)
        assert pre.nn_distance[V8] == pytest.approx(8.0)
        assert pre.nn_distance[V1] == pytest.approx(0.0)

    def test_rnn_of_v3(self, pre):
        """RNN(v3) = {(v6,3), (v7,7), (v8,4)}."""
        assert dict(pre.rnn[V3]) == {
            V6: pytest.approx(3.0),
            V7: pytest.approx(7.0),
            V8: pytest.approx(4.0),
        }

    def test_rnn_of_v4_and_v5(self, pre):
        assert dict(pre.rnn[V4]) == {V7: pytest.approx(3.0)}
        assert dict(pre.rnn[V5]) == {V7: pytest.approx(7.0)}

    def test_initial_utilities(self, pre):
        """U(v3)=12, U(v4)=8, U(v5)=4, U(v1)=3, U(v2)=2 (Example 7)."""
        assert pre.initial_utility[V3] == pytest.approx(12.0)
        assert pre.initial_utility[V4] == pytest.approx(8.0)
        assert pre.initial_utility[V5] == pytest.approx(4.0)
        assert pre.initial_utility[V1] == pytest.approx(3.0)
        assert pre.initial_utility[V2] == pytest.approx(2.0)

    def test_utility_order(self, pre):
        """The priority queue stores v3, v4, v5, v1, v2 in decreasing
        utility order (Example 7's closing sentence)."""
        assert pre.utility_order.stop_list == [V3, V4, V5, V1, V2]


class TestMechanics:
    def test_one_search_per_distinct_query(self, toy_instance, pre):
        # One field search plus one query-rooted ball per distinct query
        # node; the per-query oracle runs one search per distinct node.
        assert pre.searches == 1 + 4
        oracle = per_query_preprocess(toy_instance)
        assert oracle.searches == 4  # distinct nodes: v1, v6, v7, v8

    def test_settled_nodes_counted(self, pre):
        assert pre.settled_nodes >= pre.searches

    def test_initial_utility_matches_exact_for_candidates(self, toy_instance, pre):
        for v in toy_instance.candidates:
            assert pre.initial_utility[v] == pytest.approx(
                toy_instance.utility([v])
            )

    def test_initial_utility_scales_with_alpha(self, toy_transit, toy_queries):
        from repro.core.utility import BRRInstance

        instance = BRRInstance(
            toy_transit, toy_queries, candidates=[V3, V4, V5], alpha=10.0
        )
        pre = preprocess_queries(instance)
        assert pre.initial_utility[V1] == pytest.approx(30.0)
        # candidate utilities do not depend on alpha
        assert pre.initial_utility[V3] == pytest.approx(12.0)

    def test_multiplicity_weighting(self, toy_transit, toy_network):
        """A query node appearing twice doubles its contribution."""
        from repro.core.utility import BRRInstance
        from repro.demand.query import QuerySet

        doubled = BRRInstance(
            toy_transit,
            QuerySet(toy_network, [V6, V6]),
            candidates=[V3, V4, V5],
            alpha=1.0,
        )
        pre = preprocess_queries(doubled)
        # Each v6 gains 7-3=4 at v3 -> total 8.
        assert pre.initial_utility[V3] == pytest.approx(8.0)

    def test_unvisited_candidates_default_to_zero(self, toy_transit, toy_network):
        from repro.core.utility import BRRInstance
        from repro.demand.query import QuerySet

        instance = BRRInstance(
            toy_transit,
            QuerySet(toy_network, [V1]),  # a query sitting on a stop
            candidates=[V3, V4, V5],
            alpha=1.0,
        )
        pre = preprocess_queries(instance)
        assert pre.initial_utility[V3] == 0.0
        assert pre.initial_utility[V4] == 0.0

    def test_matches_exact_on_random_city(self, small_city):
        """On a generated city, Algorithm 2's candidate utilities equal
        the exact single-stop utilities (spot-checked on the top 10)."""
        instance = small_city.instance(alpha=1.0)
        pre = preprocess_queries(instance)
        top = pre.utility_order.stop_list[:10]
        for v in top:
            if instance.is_candidate[v]:
                assert pre.initial_utility[v] == pytest.approx(
                    instance.utility([v]), rel=1e-9
                )


class TestDisjointnessGuard:
    """Regression: a node that is both candidate and existing stop used
    to have its walking-gain utility silently clobbered by the existing
    stops' α·degree loop.  BRRInstance rejects explicit overlaps; this
    guard is defence in depth for any construction path that bypasses
    that validation and hands preprocess overlapping masks."""

    def test_overlapping_masks_raise(self, toy_instance):
        from repro.exceptions import ConfigurationError

        existing = toy_instance.existing_stops[0]
        # Simulate a malformed instance built outside the validated
        # constructor path: the masks overlap on one node.
        toy_instance.is_candidate[existing] = True
        toy_instance.candidates.append(existing)
        with pytest.raises(ConfigurationError, match="disjoint"):
            preprocess_queries(toy_instance)
        with pytest.raises(ConfigurationError, match="disjoint"):
            per_query_preprocess(toy_instance)


class TestStrategies:
    """The batched path against the per-query oracle on the worked toy
    example."""

    def test_inverted_matches_example_7(self, toy_instance, pre):
        oracle = per_query_preprocess(toy_instance)
        assert pre.nn_distance == oracle.nn_distance
        assert pre.rnn == oracle.rnn
        assert pre.initial_utility == oracle.initial_utility
        assert list(pre.rnn) == list(oracle.rnn)
        assert pre.utility_order.stop_list == oracle.utility_order.stop_list
        assert np.array_equal(
            pre.utility_order.utilities, oracle.utility_order.utilities
        )

    def test_inverted_accounting(self, pre):
        # One field search plus one query-rooted ball per distinct query.
        assert pre.searches == 1 + len(pre.nn_distance)
        assert pre.settled_nodes > 0


class TestStableOrder:
    """The table's grouping sort, in 16-bit radix passes, against numpy's
    stable argsort — including node ids past 2**16, which only cities
    of paper scale reach."""

    @pytest.mark.parametrize(
        "size, high", [(0, 5), (1, 5), (500, 7), (2000, 70_000), (2000, 2 ** 40)]
    )
    def test_matches_stable_argsort(self, size, high):
        keys = np.random.default_rng(size).integers(0, high, size).astype(np.int64)
        assert np.array_equal(stable_order(keys), np.argsort(keys, kind="stable"))
