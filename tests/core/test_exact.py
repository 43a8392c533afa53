"""Unit tests for the exhaustive OPT solver and the approximation
relationship with EBRR (Theorem 4 / Fig. 11a)."""

import itertools

import pytest

from repro.core.config import EBRRConfig
from repro.core.ebrr import plan_route
from repro.core.exact import optimal_stop_set
from repro.exceptions import ConfigurationError

from ..conftest import V1, V2, V3, V4, V5


class TestOptimalOnToy:
    def test_matches_brute_force(self, toy_instance):
        """Cross-check the fast evaluator against direct utility
        evaluation over every subset."""
        universe = [V3, V4, V5, V1, V2]
        for k in (1, 2, 3):
            best_direct = max(
                (
                    toy_instance.utility(list(subset))
                    for size in range(1, k + 1)
                    for subset in itertools.combinations(universe, size)
                ),
                default=0.0,
            )
            _, best_fast = optimal_stop_set(toy_instance, k)
            assert best_fast == pytest.approx(best_direct)

    def test_k1_optimum_is_v3(self, toy_instance):
        best_set, best_utility = optimal_stop_set(toy_instance, 1)
        assert best_set == [V3]
        assert best_utility == pytest.approx(12.0)

    def test_k4_includes_paper_route_value(self, toy_instance):
        """U({v1,v2,v3,v4}) = 20 is achievable at K=4, so OPT >= 20."""
        _, best_utility = optimal_stop_set(toy_instance, 4)
        assert best_utility >= 20.0 - 1e-9

    def test_monotone_in_k(self, toy_instance):
        values = [optimal_stop_set(toy_instance, k)[1] for k in (1, 2, 3, 4, 5)]
        assert values == sorted(values)

    def test_ebrr_never_beats_opt(self, toy_instance):
        for k in (2, 3, 4):
            config = EBRRConfig(
                max_stops=k, max_adjacent_cost=4.0, alpha=1.0, seed_stop=V1
            )
            result = plan_route(toy_instance, config)
            _, opt = optimal_stop_set(toy_instance, k)
            assert result.metrics.utility <= opt + 1e-9

    def test_ebrr_beats_theoretical_bound(self, toy_instance):
        """Theorem 4's bound is loose; the paper observes ratios near 1.
        On the toy, EBRR at K=4 should be at least 60% of OPT."""
        config = EBRRConfig(
            max_stops=4, max_adjacent_cost=4.0, alpha=1.0, seed_stop=V1
        )
        result = plan_route(toy_instance, config)
        _, opt = optimal_stop_set(toy_instance, 4)
        assert result.metrics.utility >= 0.6 * opt


class TestConstraintsAndValidation:
    def test_c_connectable_filter(self, toy_instance):
        """With require_c_connectable and a tiny C, far-apart pairs are
        rejected, so the optimum falls back to tighter sets."""
        loose_set, loose = optimal_stop_set(toy_instance, 2)
        tight_set, tight = optimal_stop_set(
            toy_instance, 2, max_adjacent_cost=4.0, require_c_connectable=True
        )
        assert tight <= loose + 1e-9
        # {v3, v4} is 4 apart -> allowed; {v3, v5} is 8 apart -> not.
        if len(tight_set) == 2:
            from repro.network.engine import engine_for

            a, b = tight_set
            assert engine_for(toy_instance.network).distance(a, b) <= 4.0 + 1e-9

    def test_invalid_k(self, toy_instance):
        with pytest.raises(ConfigurationError):
            optimal_stop_set(toy_instance, 0)

    def test_connectable_requires_c(self, toy_instance):
        with pytest.raises(ConfigurationError):
            optimal_stop_set(toy_instance, 2, require_c_connectable=True)

    def test_too_large_universe_rejected(self, small_city):
        instance = small_city.instance(alpha=1.0)
        with pytest.raises(ConfigurationError, match="intractable"):
            optimal_stop_set(instance, 3)


class TestSmallExtract:
    def test_paper_counts(self):
        from repro.datasets import small_nyc_extract

        extract = small_nyc_extract()
        assert len(extract.transit.existing_stops) == 7
        assert len(extract.candidates) == 7
        assert len(extract.queries) == 132
        assert extract.network.num_nodes >= 100

    def test_fig11a_ratio_close_to_one(self):
        from repro.datasets import small_nyc_extract

        extract = small_nyc_extract()
        instance = extract.instance(alpha=1.0)
        config = EBRRConfig(max_stops=8, max_adjacent_cost=2.0, alpha=1.0)
        result = plan_route(instance, config)
        _, opt = optimal_stop_set(instance, 8)
        assert result.metrics.utility <= opt + 1e-9
        assert result.metrics.utility >= 0.8 * opt
