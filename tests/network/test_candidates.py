"""Unit tests for candidate stop location strategies."""

import pytest

from repro.network.candidates import (
    candidate_mask,
    insert_edge_midpoints,
    node_candidates,
)
from repro.network.engine import engine_for


class TestEdgeMidpoints:
    def test_every_edge_subdivided(self, toy_network):
        new_network, midpoints = insert_edge_midpoints(toy_network)
        assert len(midpoints) == toy_network.num_edges
        assert new_network.num_nodes == toy_network.num_nodes + len(midpoints)
        assert new_network.num_edges == 2 * toy_network.num_edges

    def test_costs_halved(self, toy_network):
        new_network, midpoints = insert_edge_midpoints(toy_network)
        # Original adjacency replaced by two half-edges via the midpoint.
        engine = engine_for(new_network)
        for u, v, cost in toy_network.edges():
            assert engine.distance(u, v) == pytest.approx(cost)

    def test_original_ids_preserved(self, toy_network):
        new_network, _ = insert_edge_midpoints(toy_network)
        for node in toy_network.nodes():
            assert new_network.coordinate(node) == toy_network.coordinate(node)

    def test_midpoint_coordinates(self, line_network):
        new_network, midpoints = insert_edge_midpoints(line_network)
        xs = sorted(new_network.coordinate(m)[0] for m in midpoints)
        assert xs == pytest.approx([0.5, 1.5, 2.5, 3.5, 4.5])

    def test_min_edge_cost_skips_short_edges(self, toy_network):
        new_network, midpoints = insert_edge_midpoints(
            toy_network, min_edge_cost=3.5
        )
        # The two cost-3 edges stay whole.
        assert len(midpoints) == toy_network.num_edges - 2

    def test_shortest_distances_unchanged(self, toy_network):
        new_network, _ = insert_edge_midpoints(toy_network)
        original = engine_for(toy_network).sssp(0)
        subdivided = engine_for(new_network).sssp(0)
        for v in toy_network.nodes():
            assert subdivided[v] == pytest.approx(original[v])


class TestNodeCandidates:
    def test_excludes_existing(self, toy_network):
        candidates = node_candidates(toy_network, [0, 1])
        assert candidates == [2, 3, 4, 5, 6, 7]

    def test_empty_existing(self, toy_network):
        assert node_candidates(toy_network, []) == list(range(8))

    def test_mask(self, toy_network):
        mask = candidate_mask(toy_network, [2, 5])
        assert mask == [False, False, True, False, False, True, False, False]
