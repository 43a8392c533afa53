"""Trace collection: a single-process plan traces into one lane, and
a multi-worker ``sweep_plans`` run produces one coherent trace — spans
from every worker lane, and ``search.*`` metric totals *exactly* equal
to what the workers measured (same integers, not approximately)."""

import pytest

import repro.obs as obs
from repro.core.config import EBRRConfig
from repro.core.ebrr import plan_route
from repro.core.utility import BRRInstance
from repro.demand.generators import hotspot_demand
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city
from repro.parallel import sweep_plans
from repro.transit.builder import build_transit_network


def _instance(seed=3):
    network = grid_city(8, 8, seed=seed)
    transit = build_transit_network(
        network, num_routes=4, seed=seed + 1, stop_spacing_km=0.8
    )
    queries = hotspot_demand(
        network, 300, num_hotspots=4, transit=transit, seed=seed + 2
    )
    return BRRInstance(transit, queries, alpha=5.0)


def _traced_plan(instance, kernel=None):
    # A fresh engine per run: a shared one would serve later runs from
    # cache and skew the search counters.
    engine = SearchEngine(instance.network, kernel=kernel)
    config = EBRRConfig(
        max_stops=10, max_adjacent_cost=2.0, alpha=5.0, kernel=kernel
    )
    with obs.tracing() as trace:
        result = plan_route(instance, config, engine=engine)
    return trace, result


def _search_totals(trace):
    return {
        name: value
        for name, value in trace.metrics.as_dict()["counters"].items()
        if name.startswith("search.")
    }


class TestPlanRouteFoldBack:
    @pytest.mark.parametrize("workers", [2])
    def test_kernels_agree_across_process_boundaries(self, workers):
        """A pooled sweep is bit-identical across backends on the
        invariant counters and the planned routes: the worker engines
        search with the kernel the config names (pickled by name)."""
        instance = _instance()
        traces = {}
        results = {}
        for kernel in ("python", "vectorized"):
            configs = [
                EBRRConfig(
                    max_stops=k, max_adjacent_cost=2.0, alpha=5.0, kernel=kernel
                )
                for k in (8, 10)
            ]
            engine = SearchEngine(instance.network, kernel=kernel)
            with obs.tracing() as traces[kernel]:
                results[kernel] = sweep_plans(
                    instance, configs, workers=workers, engine=engine
                )
        for a, b in zip(results["python"], results["vectorized"]):
            assert a.route.stops == b.route.stops
            assert a.route.path == b.route.path
        totals_p = _search_totals(traces["python"])
        totals_v = _search_totals(traces["vectorized"])
        invariant = {
            name: value
            for name, value in totals_p.items()
            if not name.endswith(".pushes")  # backend-defined counter
        }
        assert invariant == {
            name: value
            for name, value in totals_v.items()
            if not name.endswith(".pushes")
        }
        # The gauge records which backend ran the searches.
        assert traces["python"].metrics.gauges["search.kernel"].value == 0
        assert traces["vectorized"].metrics.gauges["search.kernel"].value == 1

    def test_serial_run_ships_no_shards(self):
        trace, _ = _traced_plan(_instance())
        assert {span.lane for span in trace.spans} == {"main"}
        assert any(span.name == "preprocess.searches" for span in trace.spans)


class TestSweepFoldBack:
    def test_sweep_shards_carry_worker_plan_spans(self):
        instance = _instance()
        configs = [
            EBRRConfig(max_stops=k, max_adjacent_cost=2.0, alpha=5.0)
            for k in (6, 8, 10, 12)
        ]
        with obs.tracing() as trace:
            results = sweep_plans(instance, configs, workers=2)
        assert len(results) == 4
        lanes = {span.lane for span in trace.spans}
        assert any(l.startswith("worker-") for l in lanes)
        plan_spans = [s for s in trace.spans if s.name == "plan_route"]
        assert len(plan_spans) == 4  # one per config, shipped home
        sweep_span = next(s for s in trace.spans if s.name == "sweep")
        by_index = {s.index: s for s in trace.spans}
        for plan_span in plan_spans:
            assert by_index[plan_span.parent] is sweep_span
        assert obs.validate_chrome_trace(obs.chrome_trace(trace)) == []

    def test_sweep_trace_metrics_match_result_stats(self):
        # The trace totals must equal the sum over the results' own
        # search_stats — the workers recorded them, shards shipped them,
        # nothing was double-counted on merge.
        instance = _instance()
        configs = [
            EBRRConfig(max_stops=k, max_adjacent_cost=2.0, alpha=5.0)
            for k in (6, 10)
        ]
        with obs.tracing() as trace:
            results = sweep_plans(instance, configs, workers=2)
        expected = sum(r.total_search_stats.searches for r in results)
        counters = trace.metrics.as_dict()["counters"]
        assert counters["search.total.searches"] == expected


class TestInvertedStrategyTraces:
    """The batched preprocessing path's own spans and counters."""

    def test_preprocess_spans_and_counters_present(self):
        trace, _ = _traced_plan(_instance())
        names = {span.name for span in trace.spans}
        assert "preprocess.labels" in names
        assert "preprocess.balls" in names
        counters = trace.metrics.as_dict()["counters"]
        assert counters["preprocess.labels.sources"] > 0
        assert counters["preprocess.labels.reachable"] > 0
        assert counters["preprocess.balls.count"] > 0
        assert counters["preprocess.balls.settled"] > 0
