"""Unit tests for the ETA-Pre baseline."""

import pytest

from repro.baselines.eta_pre import ETAPre, _cap_stops
from repro.core.config import EBRRConfig
from repro.exceptions import ConfigurationError


@pytest.fixture
def instance(small_city):
    return small_city.instance(alpha=25.0)


@pytest.fixture
def config():
    return EBRRConfig(max_stops=8, max_adjacent_cost=2.0, alpha=25.0)


class TestPlan:
    def test_produces_k_stop_route(self, instance, config):
        plan = ETAPre(num_candidates=6, seed=1).plan(instance, config)
        assert 2 <= plan.route.num_stops <= config.max_stops
        plan.route.validate_on(instance.network)

    def test_metrics_attached(self, instance, config):
        plan = ETAPre(num_candidates=4, seed=1).plan(instance, config)
        assert plan.metrics.walk_cost > 0
        assert plan.metrics.connectivity >= 0
        assert plan.timings["total"] > 0
        assert "preprocess" in plan.timings

    def test_deterministic(self, instance, config):
        a = ETAPre(num_candidates=4, seed=5).plan(instance, config)
        b = ETAPre(num_candidates=4, seed=5).plan(instance, config)
        assert a.route.stops == b.route.stops

    def test_cache_speeds_second_plan(self, instance, config):
        planner = ETAPre(num_candidates=4, seed=2)
        first = planner.plan(instance, config)
        second = planner.plan(instance, config)
        assert second.timings["preprocess"] <= first.timings["preprocess"]
        planner.invalidate_cache()

    def test_invalid_candidates(self):
        with pytest.raises(ConfigurationError):
            ETAPre(num_candidates=0)

    def test_may_violate_c(self, instance, config):
        """The paper: baseline routes 'could violate the constraint of
        C because their problems do not require it' — so the route is
        not guaranteed feasible, only well-formed."""
        plan = ETAPre(num_candidates=4, seed=3).plan(instance, config)
        costs = plan.route.adjacent_stop_costs(instance.network)
        assert all(c > 0 for c in costs)


class TestCapStops:
    def test_within_limit_unchanged(self):
        assert _cap_stops([1, 2, 3], 5) == [1, 2, 3]

    def test_thinning_keeps_terminals(self):
        stops = list(range(10, 30))
        capped = _cap_stops(stops, 5)
        assert len(capped) == 5
        assert capped[0] == stops[0]
        assert capped[-1] == stops[-1]

    def test_single(self):
        assert _cap_stops([4, 5, 6], 1) == [4]

    def test_no_duplicates(self):
        capped = _cap_stops(list(range(100)), 7)
        assert len(set(capped)) == len(capped)
