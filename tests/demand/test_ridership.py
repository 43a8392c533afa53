"""Unit tests for the simulated ridership demand extraction."""

import math

import pytest

from repro.demand.ridership import ridership_demand, uncovered_query_nodes
from repro.exceptions import DemandError
from repro.network.engine import engine_for
from repro.transit.builder import build_transit_network


@pytest.fixture
def grid_transit(grid_network):
    return build_transit_network(
        grid_network, num_routes=3, seed=11, stop_spacing_km=1.5
    )


class TestRidershipDemand:
    def test_size_and_name(self, grid_transit):
        qs = ridership_demand(grid_transit, 300, seed=1, name="lynx")
        assert len(qs) == 300
        assert qs.name == "lynx"

    def test_growth_fraction_extremes(self, grid_transit, grid_network):
        near = ridership_demand(grid_transit, 300, growth_fraction=0.0, seed=2)
        far = ridership_demand(grid_transit, 300, growth_fraction=1.0, seed=2)
        dist = engine_for(grid_network).multi_source(grid_transit.existing_stops)
        mean_near = sum(dist[v] for v in near) / len(near)
        mean_far = sum(dist[v] for v in far) / len(far)
        assert mean_far > mean_near

    def test_deterministic(self, grid_transit):
        a = ridership_demand(grid_transit, 100, seed=3)
        b = ridership_demand(grid_transit, 100, seed=3)
        assert a.nodes == b.nodes

    def test_parameter_validation(self, grid_transit):
        with pytest.raises(DemandError):
            ridership_demand(grid_transit, 0)
        with pytest.raises(DemandError):
            ridership_demand(grid_transit, 10, growth_fraction=2.0)
        with pytest.raises(DemandError):
            ridership_demand(grid_transit, 10, num_growth_clusters=0)


class TestUncoveredQueryNodes:
    def test_matches_direct_computation(self, grid_transit, grid_network):
        qs = ridership_demand(grid_transit, 200, seed=4)
        limit = 1.0
        uncovered = uncovered_query_nodes(qs, grid_transit, walk_limit_km=limit)
        dist = engine_for(grid_network).multi_source(grid_transit.existing_stops)
        expected = [v for v in qs.nodes if dist[v] > limit + 1e-9]
        assert sorted(uncovered) == sorted(expected)

    def test_zero_limit_marks_non_stops(self, grid_transit, grid_network):
        qs = ridership_demand(grid_transit, 100, seed=5)
        uncovered = uncovered_query_nodes(qs, grid_transit, walk_limit_km=1e-9)
        stops = set(grid_transit.existing_stops)
        for v in qs.nodes:
            if v not in stops:
                assert v in uncovered

    def test_huge_limit_covers_all(self, grid_transit):
        qs = ridership_demand(grid_transit, 100, seed=6)
        assert uncovered_query_nodes(qs, grid_transit, walk_limit_km=1e9) == []

    def test_multiset_semantics(self, grid_transit, grid_network):
        # A node appearing twice appears twice in the uncovered list.
        dist = engine_for(grid_network).multi_source(grid_transit.existing_stops)
        far_node = max(grid_network.nodes(), key=lambda v: dist[v])
        from repro.demand.query import QuerySet

        qs = QuerySet(grid_network, [far_node, far_node])
        uncovered = uncovered_query_nodes(qs, grid_transit, walk_limit_km=0.1)
        assert uncovered == [far_node, far_node]
