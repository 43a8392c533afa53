"""CSR adjacency: construction and row ordering."""

import pytest

from repro.network.csr import CSRAdjacency
from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork


@pytest.fixture
def small_network():
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 0, 2.5), (0, 2, 4.0)]
    return RoadNetwork(coords, edges)


def test_rows_match_neighbors_exactly(small_network):
    csr = CSRAdjacency(small_network)
    assert csr.num_nodes == small_network.num_nodes
    for u in small_network.nodes():
        row = [
            (csr.targets[i], csr.costs[i])
            for i in range(csr.indptr[u], csr.indptr[u + 1])
        ]
        assert row == list(small_network.neighbors(u))
        assert csr.degree(u) == len(row)


def test_rows_match_on_generated_city():
    network = grid_city(6, 6, seed=3)
    csr = CSRAdjacency(network)
    for u in network.nodes():
        row = [
            (csr.targets[i], csr.costs[i])
            for i in range(csr.indptr[u], csr.indptr[u + 1])
        ]
        assert row == list(network.neighbors(u))


def test_num_directed_edges_is_twice_undirected(small_network):
    csr = CSRAdjacency(small_network)
    assert csr.num_directed_edges == 2 * len(list(small_network.edges()))
    assert csr.indptr[-1] == csr.num_directed_edges


def test_network_accessor(small_network):
    csr = CSRAdjacency(small_network)
    assert csr.network is small_network
