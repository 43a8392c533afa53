"""End-to-end tests for the EBRR driver (Algorithm 1)."""

import pytest

from repro.core.config import EBRRConfig
from repro.core.ebrr import evaluate_route, plan_route
from repro.core.preprocess import preprocess_queries
from repro.datasets import load_city
from repro.eval.experiments import ABLATION_VARIANTS, calibrated_alpha
from repro.exceptions import InfeasibleRouteError
from repro.network.engine import SearchStats
from repro.transit.route import BusRoute

from ..conftest import V1, V2, V3, V4, V5


def _config(**overrides):
    defaults = dict(max_stops=4, max_adjacent_cost=4.0, alpha=1.0, seed_stop=V1)
    defaults.update(overrides)
    return EBRRConfig(**defaults)


class TestToyEndToEnd:
    def test_example_route(self, toy_instance):
        """On the toy, EBRR should produce the paper's green route
        {v1, v2, v3, v4} (Example 5/10): utility 20."""
        result = plan_route(toy_instance, _config())
        assert sorted(result.route.stops) == [V1, V2, V3, V4]
        assert result.metrics.utility == pytest.approx(20.0)
        assert result.is_feasible

    def test_route_is_valid_bus_route(self, toy_instance):
        result = plan_route(toy_instance, _config())
        result.route.validate_on(toy_instance.network)

    def test_constraints_satisfied(self, toy_instance):
        result = plan_route(toy_instance, _config())
        assert result.route.satisfies_constraints(
            toy_instance.network, max_stops=4, max_adjacent_cost=4.0
        )

    def test_metrics_consistent(self, toy_instance):
        result = plan_route(toy_instance, _config())
        m = result.metrics
        assert m.utility == pytest.approx(
            m.walk_decrease + toy_instance.alpha * m.connectivity
        )
        assert m.walk_cost == pytest.approx(
            toy_instance.baseline_walk() - m.walk_decrease
        )
        assert m.num_stops == result.route.num_stops

    def test_timings_recorded(self, toy_instance):
        result = plan_route(toy_instance, _config())
        for key in ("preprocess", "selection", "ordering", "refinement", "total"):
            assert key in result.timings
            assert result.timings[key] >= 0.0
        assert result.timings["total"] >= result.timings["selection"]

    def test_preprocess_reuse(self, toy_instance):
        pre = preprocess_queries(toy_instance)
        a = plan_route(toy_instance, _config(), preprocess=pre)
        b = plan_route(toy_instance, _config())
        assert a.route.stops == b.route.stops
        assert a.timings["preprocess"] <= b.timings["preprocess"] + 1e-3

    def test_alpha_mismatch_rejected(self, toy_instance):
        with pytest.raises(InfeasibleRouteError, match="alpha"):
            plan_route(toy_instance, _config(alpha=5.0))

    def test_route_id(self, toy_instance):
        result = plan_route(toy_instance, _config(), route_id="my_route")
        assert result.route.route_id == "my_route"


class TestAblationsOnToy:
    def test_without_refinement_fewer_stops(self, toy_instance):
        full = plan_route(toy_instance, _config())
        bare = plan_route(toy_instance, _config(refine_path=False))
        assert bare.metrics.num_stops <= full.metrics.num_stops
        # Fig 16a: refinement does not reduce utility.
        assert full.metrics.utility >= bare.metrics.utility - 1e-9

    def test_variants_same_utility(self, toy_instance):
        base = plan_route(toy_instance, _config())
        for overrides in (
            dict(use_threshold_pruning=False),
            dict(use_lower_bound_price=False),
            dict(use_lazy_selection=False, use_threshold_pruning=False),
        ):
            variant = plan_route(toy_instance, _config(**overrides))
            assert variant.metrics.utility == pytest.approx(
                base.metrics.utility
            )


class TestOnGeneratedCity:
    def test_full_run_feasible(self, small_city):
        alpha = 25.0
        instance = small_city.instance(alpha)
        config = EBRRConfig(max_stops=12, max_adjacent_cost=2.0, alpha=alpha)
        result = plan_route(instance, config)
        assert result.is_feasible, result.constraint_violations
        assert 2 <= result.metrics.num_stops <= 12
        assert result.metrics.utility > 0
        assert result.metrics.walk_decrease >= 0

    def test_more_stops_do_not_hurt(self, small_city):
        alpha = 25.0
        instance = small_city.instance(alpha)
        utilities = []
        for k in (4, 8, 16):
            config = EBRRConfig(max_stops=k, max_adjacent_cost=2.0, alpha=alpha)
            utilities.append(plan_route(instance, config).metrics.utility)
        # Greedy noise allowed, but the trend must be non-collapsing.
        assert utilities[-1] >= utilities[0] * 0.9

    def test_deterministic(self, small_city):
        alpha = 25.0
        instance = small_city.instance(alpha)
        config = EBRRConfig(max_stops=10, max_adjacent_cost=2.0, alpha=alpha)
        a = plan_route(instance, config)
        b = plan_route(instance, config)
        assert a.route.stops == b.route.stops


class TestEvaluateRoute:
    def test_scores_arbitrary_route(self, toy_instance):
        route = BusRoute("manual", [V1, V2, V3], [V1, V2, V3])
        metrics = evaluate_route(toy_instance, route)
        # Walk({v1,v2,v3}) with v3 added: v6->3, v7->7, v8->4 => 14.
        assert metrics.walk_cost == pytest.approx(14.0)
        assert metrics.connectivity == 4
        assert metrics.utility == pytest.approx((26 - 14) + 4)

    def test_route_length(self, toy_instance):
        route = BusRoute("manual", [V1, V3], [V1, V2, V3])
        assert evaluate_route(toy_instance, route).route_length == (
            pytest.approx(8.0)
        )

    def test_summary_and_feasibility(self, toy_instance):
        result = plan_route(toy_instance, _config())
        text = result.summary()
        assert "utility" in text and "stops" in text


class TestSearchStats:
    def test_plan_route_reports_per_phase_stats(self, small_city):
        alpha = 25.0
        instance = small_city.instance(alpha)
        config = EBRRConfig(max_stops=8, max_adjacent_cost=2.0, alpha=alpha)
        from repro.network.engine import SearchEngine

        # A private engine guarantees a cold cache regardless of what
        # earlier tests did to the network's shared engine.
        result = plan_route(
            instance, config, engine=SearchEngine(instance.network)
        )
        # Every pipeline phase ran graph searches on a fresh engine.
        for phase in ("preprocess", "selection", "ordering", "refinement"):
            assert phase in result.search_stats, phase
            assert result.search_stats[phase].searches > 0
        total = result.total_search_stats
        assert total.settled > 0 and total.pushes > 0
        assert total.searches == sum(
            s.searches for s in result.search_stats.values()
        )

    def test_reused_preprocess_contributes_no_preprocess_phase(self, small_city):
        alpha = 25.0
        instance = small_city.instance(alpha)
        config = EBRRConfig(max_stops=6, max_adjacent_cost=2.0, alpha=alpha)
        pre = preprocess_queries(instance)
        result = plan_route(instance, config, preprocess=pre)
        assert "preprocess" not in result.search_stats
        assert result.total_search_stats.searches > 0

    def test_shared_engine_caches_ordering_rows_across_k_sweep(self, small_city):
        alpha = 25.0
        instance = small_city.instance(alpha)
        pre = preprocess_queries(instance)
        first = plan_route(
            instance,
            EBRRConfig(max_stops=8, max_adjacent_cost=2.0, alpha=alpha),
            preprocess=pre,
        )
        second = plan_route(
            instance,
            EBRRConfig(max_stops=8, max_adjacent_cost=2.0, alpha=alpha),
            preprocess=pre,
        )
        assert second.route.stops == first.route.stops
        # The repeat run serves its ordering rows from the shared cache.
        assert second.search_stats["ordering"].cache_hits > 0
        assert (
            second.search_stats["ordering"].settled
            < first.search_stats["ordering"].settled
            or first.search_stats["ordering"].settled == 0
        )


@pytest.fixture(scope="module")
def chicago_small():
    dataset = load_city("chicago", scale=0.06)
    alpha = calibrated_alpha(dataset)
    instance = dataset.instance(alpha)
    return instance, alpha, preprocess_queries(instance)


class TestPriceFolds:
    @pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
    @pytest.mark.parametrize("k, c", [(6, 1.5), (10, 2.0), (16, 3.0)])
    def test_selection_folds_only_priced_stops(self, chicago_small, variant, k, c):
        """``dist(·, B)`` requests one row per selected stop that a later
        price read: the seed and every pick but the last.  The last pick
        and refinement's commits fold nothing."""
        instance, alpha, pre = chicago_small
        config = EBRRConfig(
            max_stops=k,
            max_adjacent_cost=c,
            alpha=alpha,
            **ABLATION_VARIANTS[variant],
        )
        result = plan_route(instance, config, preprocess=pre)
        stats = result.search_stats.get("selection", SearchStats())
        assert stats.searches + stats.cache_hits == len(result.trace.selected) - 1
