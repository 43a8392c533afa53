"""Explicit engine cache capacity: engine enforcement and daemon-level
accounting under a request stream (the tenant's ``cache_capacity``).

The service tests use a *private* dataset shape (a scale no other serve
module loads) so capping this tenant's engine never perturbs the shared
engine the rest of the suite rides on.
"""

import pytest

from repro.exceptions import GraphError
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city
from repro.serve import TenantSpec

from .conftest import CITY

PRIVATE_SCALE = 0.045  # distinct network => distinct engine


class TestEngineCapacity:
    def test_default_capacity(self):
        engine = SearchEngine(grid_city(4, 4, seed=3))
        assert engine.cache_capacity == 64

    def test_capacity_bounds_rows_and_points(self):
        network = grid_city(5, 5, seed=3)
        engine = SearchEngine(network)
        engine.set_cache_capacity(3)
        for source in range(10):
            engine.sssp(source)
        info = engine.cache_info()
        assert info.rows <= 3
        assert info.points <= 12
        assert info.evictions > 0

    def test_shrinking_trims_oldest_and_counts_evictions(self):
        network = grid_city(5, 5, seed=3)
        engine = SearchEngine(network)
        for source in range(8):
            engine.sssp(source)
        before = engine.cache_info()
        assert before.rows == 8
        engine.set_cache_capacity(2)
        after = engine.cache_info()
        assert after.rows == 2
        assert after.evictions == before.evictions + 6
        # The two NEWEST rows survive: hitting them is still a cache hit.
        hits_before = after.hits
        engine.sssp(7)
        assert engine.cache_info().hits == hits_before + 1

    def test_capacity_below_one_raises(self):
        engine = SearchEngine(grid_city(3, 3, seed=3))
        with pytest.raises(GraphError):
            engine.set_cache_capacity(0)

    def test_capped_engine_results_unchanged(self):
        network = grid_city(5, 5, seed=3)
        reference = SearchEngine(network)
        capped = SearchEngine(network)
        capped.set_cache_capacity(1)
        for source in (0, 7, 13, 7, 0):
            assert capped.sssp(source) == reference.sssp(source)


class TestServedCapacity:
    def test_capped_tenant_under_request_stream(self, make_harness):
        harness = make_harness(
            spec=TenantSpec(city=CITY, scale=PRIVATE_SCALE, cache_capacity=4)
        )
        for max_stops in (6, 8, 10, 12, 6, 8):
            status, _ = harness.post(
                "/v1/plan", {"dataset": CITY, "max_stops": max_stops}
            )
            assert status == 200
            status, stats = harness.get("/v1/stats")
            assert status == 200
            cache = stats["datasets"][CITY]["cache"]
            assert cache["capacity"] == 4
            assert cache["rows"] <= 4
            assert cache["points"] <= 16
        assert cache["evictions"] > 0
        assert cache["hits"] > 0  # capped is bounded, not disabled
