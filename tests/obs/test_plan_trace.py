"""What a traced ``plan_route`` records: one lane, the preprocessing's
own spans and counters, and ``search.*`` totals that do not depend on
the search backend."""

import repro.obs as obs
from repro.core.config import EBRRConfig
from repro.core.ebrr import plan_route
from repro.core.utility import BRRInstance
from repro.demand.generators import hotspot_demand
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city
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


def _traced_plan(instance):
    # A fresh engine per run: a shared one would serve later runs from
    # cache and skew the search counters.
    engine = SearchEngine(instance.network)
    config = EBRRConfig(max_stops=10, max_adjacent_cost=2.0, alpha=5.0)
    with obs.tracing() as trace:
        plan_route(instance, config, engine=engine)
    return trace


def _invariant_search_counters(trace):
    return {
        name: value
        for name, value in trace.metrics.as_dict()["counters"].items()
        if name.startswith("search.")
        and not name.endswith(".pushes")  # backend-defined counter
    }


class TestPlanTrace:
    def test_kernels_agree_in_process(self):
        """Both backends plan the same routes and record the same
        backend-independent search counters; the ``search.kernel``
        gauge says which one ran."""
        instance = _instance()
        configs = [
            EBRRConfig(max_stops=k, max_adjacent_cost=2.0, alpha=5.0)
            for k in (8, 10)
        ]
        traces = {}
        results = {}
        for kernel in ("python", "vectorized"):
            engine = SearchEngine(instance.network, kernel=kernel)
            with obs.tracing() as traces[kernel]:
                results[kernel] = [
                    plan_route(instance, config, engine=engine)
                    for config in configs
                ]
        for a, b in zip(results["python"], results["vectorized"]):
            assert a.route.stops == b.route.stops
            assert a.route.path == b.route.path
        python_counters = _invariant_search_counters(traces["python"])
        assert python_counters["search.total.searches"] > 0
        assert python_counters == _invariant_search_counters(
            traces["vectorized"]
        )
        assert traces["python"].metrics.gauges["search.kernel"].value == 0
        assert traces["vectorized"].metrics.gauges["search.kernel"].value == 1

    def test_plan_records_one_lane(self):
        trace = _traced_plan(_instance())
        assert {span.lane for span in trace.spans} == {"main"}
        assert any(span.name == "preprocess.searches" for span in trace.spans)

    def test_preprocess_spans_and_counters_present(self):
        trace = _traced_plan(_instance())
        names = {span.name for span in trace.spans}
        assert "preprocess.labels" in names
        assert "preprocess.balls" in names
        counters = trace.metrics.as_dict()["counters"]
        assert counters["preprocess.labels.sources"] > 0
        assert counters["preprocess.labels.reachable"] > 0
        assert counters["preprocess.balls.count"] > 0
        assert counters["preprocess.balls.settled"] > 0
