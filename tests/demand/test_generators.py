"""Unit tests for the demand generators."""

import math

import pytest

from repro.demand.generators import commute_demand, hotspot_demand, uniform_demand
from repro.exceptions import DemandError
from repro.network.engine import engine_for
from repro.transit.builder import build_transit_network


class TestUniform:
    def test_size_and_range(self, grid_network):
        qs = uniform_demand(grid_network, 500, seed=1)
        assert len(qs) == 500
        assert all(0 <= v < grid_network.num_nodes for v in qs)

    def test_deterministic(self, grid_network):
        assert uniform_demand(grid_network, 100, seed=2).nodes == (
            uniform_demand(grid_network, 100, seed=2).nodes
        )

    def test_rejects_empty(self, grid_network):
        with pytest.raises(DemandError):
            uniform_demand(grid_network, 0)


class TestHotspot:
    def test_size(self, grid_network):
        qs = hotspot_demand(grid_network, 400, num_hotspots=3, seed=1)
        assert len(qs) == 400

    def test_clustered_more_than_uniform(self, grid_network):
        """Hotspot demand concentrates on fewer distinct nodes than
        uniform demand of the same size."""
        hot = hotspot_demand(grid_network, 400, num_hotspots=2,
                             sigma_km=0.6, seed=3)
        uni = uniform_demand(grid_network, 400, seed=3)
        assert len(set(hot.nodes)) < len(set(uni.nodes))

    def test_uncovered_bias(self, grid_network):
        """With transit supplied and uncovered_fraction=1, hotspots sit
        far from existing stops."""
        transit = build_transit_network(grid_network, num_routes=3, seed=4,
                                        stop_spacing_km=1.5)
        far = hotspot_demand(
            grid_network, 300, num_hotspots=4, sigma_km=0.4,
            transit=transit, uncovered_fraction=1.0,
            background_fraction=0.0, seed=5,
        )
        near = hotspot_demand(
            grid_network, 300, num_hotspots=4, sigma_km=0.4,
            transit=transit, uncovered_fraction=0.0,
            background_fraction=0.0, seed=5,
        )
        dist = engine_for(grid_network).multi_source(transit.existing_stops)
        mean_far = sum(dist[v] for v in far) / len(far)
        mean_near = sum(dist[v] for v in near) / len(near)
        assert mean_far > mean_near

    def test_parameter_validation(self, grid_network):
        with pytest.raises(DemandError):
            hotspot_demand(grid_network, 10, uncovered_fraction=1.5)
        with pytest.raises(DemandError):
            hotspot_demand(grid_network, 10, background_fraction=1.0)
        with pytest.raises(DemandError):
            hotspot_demand(grid_network, 10, num_hotspots=0)
        with pytest.raises(DemandError):
            hotspot_demand(grid_network, 0)

    def test_deterministic(self, grid_network):
        a = hotspot_demand(grid_network, 100, seed=7)
        b = hotspot_demand(grid_network, 100, seed=7)
        assert a.nodes == b.nodes


class TestCommute:
    def test_produces_od_pairs(self, grid_network):
        queries = commute_demand(grid_network, 100, seed=1)
        assert 0 < len(queries) <= 100
        for q in queries:
            assert q.origin != q.destination
            assert 0 <= q.origin < grid_network.num_nodes

    def test_destinations_core_biased(self, grid_network):
        """Destinations cluster near the geographic core."""
        queries = commute_demand(grid_network, 200, sigma_km=0.5, seed=2)
        coords = grid_network.coordinates()
        core = (2.5, 2.5)
        from repro.network.geometry import euclidean

        dest_mean = sum(
            euclidean(coords[q.destination], core) for q in queries
        ) / len(queries)
        origin_mean = sum(
            euclidean(coords[q.origin], core) for q in queries
        ) / len(queries)
        assert dest_mean <= origin_mean + 0.5

    def test_rejects_empty(self, grid_network):
        with pytest.raises(DemandError):
            commute_demand(grid_network, 0)
