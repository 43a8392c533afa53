"""Unit tests for the BRR instance and the exact objective functions —
the paper's Examples 2, 3, 4, and 5 verified number for number."""

import pytest

from repro.core.utility import BRRInstance
from repro.exceptions import ConfigurationError, DemandError

from ..conftest import V1, V2, V3, V4, V5, V6, V7, V8


class TestPaperExamples:
    def test_example2_walking_cost_of_single_query(self, toy_instance):
        """Example 2: f(q, S_existing) = dist(v6,v2) + dist(v1,v1) = 7."""
        from repro.network.engine import engine_for

        dist = engine_for(toy_instance.network).multi_source(
            toy_instance.existing_stops
        )
        assert dist[V6] + dist[V1] == pytest.approx(7.0)

    def test_example3_walk_existing(self, toy_instance):
        """Example 3: Walk(S_existing) = 26."""
        assert toy_instance.baseline_walk() == pytest.approx(26.0)

    def test_example3_walk_with_new_stops(self, toy_instance):
        """Example 3: Walk({v1, v2, v3, v4}) = 10."""
        assert toy_instance.walk([V1, V2, V3, V4]) == pytest.approx(10.0)

    def test_example5_utility(self, toy_instance):
        """Example 5: U({v1,v2,v3,v4}) = 26 - 10 + 1*4 = 20."""
        assert toy_instance.utility([V1, V2, V3, V4]) == pytest.approx(20.0)

    def test_example4_connectivity_via_instance(self, toy_instance):
        assert toy_instance.connectivity([V1]) == 3
        assert toy_instance.connectivity([V1, V2]) == 4

    def test_single_stop_utilities_match_example7(self, toy_instance):
        """Example 7 initial utilities: U(v3)=12, U(v4)=8, U(v5)=4,
        U(v1)=3, U(v2)=2 (alpha=1)."""
        assert toy_instance.utility([V3]) == pytest.approx(12.0)
        assert toy_instance.utility([V4]) == pytest.approx(8.0)
        assert toy_instance.utility([V5]) == pytest.approx(4.0)
        assert toy_instance.utility([V1]) == pytest.approx(3.0)
        assert toy_instance.utility([V2]) == pytest.approx(2.0)


class TestInstanceValidation:
    def test_alpha_positive(self, toy_transit, toy_queries):
        with pytest.raises(ConfigurationError):
            BRRInstance(toy_transit, toy_queries, alpha=0.0)

    def test_candidates_disjoint_from_existing(self, toy_transit, toy_queries):
        with pytest.raises(ConfigurationError, match="disjoint"):
            BRRInstance(
                toy_transit, toy_queries, candidates=[V1, V3], alpha=1.0
            )

    def test_default_candidates_are_non_stops(self, toy_transit, toy_queries):
        instance = BRRInstance(toy_transit, toy_queries, alpha=1.0)
        assert instance.candidates == [V3, V4, V5, V6, V7, V8]

    def test_query_counts_multiset(self, toy_instance):
        assert toy_instance.query_counts == {V1: 3, V6: 1, V7: 1, V8: 1}

    def test_mismatched_network_rejected(self, toy_transit, grid_network):
        from repro.demand.query import QuerySet

        foreign = QuerySet(grid_network, [0, 1])
        with pytest.raises(DemandError, match="share"):
            BRRInstance(toy_transit, foreign, alpha=1.0)

    def test_utility_of_unknown_stop_rejected(self, toy_instance):
        with pytest.raises(ConfigurationError, match="neither"):
            toy_instance.utility([V6])  # v6 not in the explicit S_new

    def test_walk_empty_rejected(self, toy_instance):
        with pytest.raises(ConfigurationError):
            toy_instance.walk([])


class TestObjectiveProperties:
    def test_utility_empty_set_zero(self, toy_instance):
        assert toy_instance.utility([]) == 0.0

    def test_monotonicity(self, toy_instance):
        """Theorem 1 (monotone part) on all nested pairs in the toy."""
        universe = [V3, V4, V5, V1, V2]
        for i in range(len(universe)):
            smaller = universe[:i]
            larger = universe[: i + 1]
            assert toy_instance.utility(larger) >= (
                toy_instance.utility(smaller) - 1e-9
            )

    def test_marginal_utility_consistency(self, toy_instance):
        base = [V3]
        for v in (V4, V5, V1, V2):
            marginal = toy_instance.marginal_utility(v, base)
            direct = toy_instance.utility(base + [v]) - toy_instance.utility(base)
            assert marginal == pytest.approx(direct)

    def test_walk_decrease_definition(self, toy_instance):
        decrease = toy_instance.walk_decrease([V3, V4])
        assert decrease == pytest.approx(
            toy_instance.baseline_walk()
            - toy_instance.walk([V1, V2, V3, V4])
        )

    def test_existing_stops_give_no_walk_decrease(self, toy_instance):
        """Walk(S_existing ∪ {v}) = Walk(S_existing) for v existing."""
        assert toy_instance.walk_decrease([]) == pytest.approx(0.0)
        assert toy_instance.utility([V1]) == pytest.approx(
            toy_instance.alpha * 3
        )

    def test_baseline_walk_cached(self, toy_instance):
        first = toy_instance.baseline_walk()
        assert toy_instance.baseline_walk() is not None
        assert toy_instance.baseline_walk() == first

    def test_repr(self, toy_instance):
        text = repr(toy_instance)
        assert "|Q|=6" in text
        assert "|S_new|=3" in text
