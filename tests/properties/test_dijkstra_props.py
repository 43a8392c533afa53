"""Property-based tests for the Dijkstra family, cross-checked against
networkx on random connected graphs."""

import heapq
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.engine import (
    SearchEngine,
    available_kernels,
    engine_for,
)
from repro.network.graph import RoadNetwork


@st.composite
def connected_networks(draw):
    """A random connected weighted graph: a random spanning tree plus
    random extra edges."""
    n = draw(st.integers(min_value=2, max_value=12))
    coords = [
        (draw(st.floats(0, 10)), draw(st.floats(0, 10))) for _ in range(n)
    ]
    edges = []
    # spanning tree
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        cost = draw(st.floats(min_value=0.1, max_value=5.0))
        edges.append((parent, v, cost))
    # extras
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            cost = draw(st.floats(min_value=0.1, max_value=5.0))
            edges.append((u, v, cost))
    return RoadNetwork(coords, edges)


def _nx_graph(network):
    graph = nx.Graph()
    graph.add_nodes_from(network.nodes())
    for u, v, cost in network.edges():
        graph.add_edge(u, v, weight=cost)
    return graph


@settings(max_examples=40, deadline=None)
@given(network=connected_networks(), source_seed=st.integers(0, 10 ** 6))
def test_costs_match_networkx(network, source_seed):
    source = source_seed % network.num_nodes
    ours = engine_for(network).sssp(source)
    reference = nx.single_source_dijkstra_path_length(
        _nx_graph(network), source
    )
    for v in network.nodes():
        assert ours[v] == pytest.approx(reference[v])


@settings(max_examples=30, deadline=None)
@given(network=connected_networks(), seed=st.integers(0, 10 ** 6))
def test_shortest_path_is_valid_and_optimal(network, seed):
    source = seed % network.num_nodes
    target = (seed // 7) % network.num_nodes
    path, cost = engine_for(network).path(source, target)
    assert path[0] == source and path[-1] == target
    assert network.is_path(path)
    assert network.path_cost(path) == pytest.approx(cost)
    assert cost == pytest.approx(
        nx.dijkstra_path_length(_nx_graph(network), source, target)
    )


@settings(max_examples=30, deadline=None)
@given(network=connected_networks(), seed=st.integers(0, 10 ** 6))
def test_triangle_inequality(network, seed):
    n = network.num_nodes
    a, b, c = seed % n, (seed // 3) % n, (seed // 11) % n
    engine = engine_for(network)
    d_ab = engine.distance(a, b)
    d_bc = engine.distance(b, c)
    d_ac = engine.distance(a, c)
    assert d_ac <= d_ab + d_bc + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    network=connected_networks(),
    seeds=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
)
def test_incremental_equals_multi_source(network, seeds):
    """``dist(·, B)`` as the minimum of cached SSSP rows is bit-identical,
    after every added source and on every backend, to one multi-source
    search of the reference kernel."""
    n = network.num_nodes
    oracle = SearchEngine(network, kernel="python")
    for kernel in available_kernels():
        incremental = SearchEngine(network, kernel=kernel).incremental_nearest()
        sources = []
        for seed in seeds:
            sources.append(seed % n)
            incremental.add_source(sources[-1])
            expected = oracle.multi_source(sorted(set(sources)), cached=False)
            assert incremental.distance.tolist() == expected


def _pruned_fold(csr, source, distance):
    """Fold ``source`` into the nearest-source field ``distance`` in place
    with a heapq search pruned wherever an earlier source is already as
    close — the structure's earlier implementation, kept as an oracle."""
    indptr, targets, costs = csr.indptr, csr.targets, csr.costs
    local = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > local.get(u, math.inf) or d >= distance[u]:
            continue
        distance[u] = d
        for i in range(indptr[u], indptr[u + 1]):
            v, nd = targets[i], d + costs[i]
            if nd < local.get(v, math.inf) and nd < distance[v]:
                local[v] = nd
                heapq.heappush(heap, (nd, v))


@settings(max_examples=30, deadline=None)
@given(
    network=connected_networks(),
    seeds=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
)
@pytest.mark.parametrize("kernel", available_kernels())
def test_row_minimum_equals_pruned_fold_oracle(kernel, network, seeds):
    """``dist(·, B)`` as the minimum of cached SSSP rows is bit-identical,
    after every added source, to the pruned heapq fold, on either
    backend."""
    n = network.num_nodes
    csr = SearchEngine(network, kernel="python").csr
    expected = [math.inf] * n
    incremental = SearchEngine(network, kernel=kernel).incremental_nearest()
    for seed in seeds:
        source = seed % n
        _pruned_fold(csr, source, expected)
        incremental.add_source(source)
        assert incremental.distance.tolist() == expected


@settings(max_examples=30, deadline=None)
@given(network=connected_networks(), seed=st.integers(0, 10 ** 6))
def test_adding_sources_never_increases_distance(network, seed):
    n = network.num_nodes
    incremental = engine_for(network).incremental_nearest()
    previous = [math.inf] * n
    for k in range(3):
        incremental.add_source((seed // (k + 1)) % n)
        for v in network.nodes():
            assert incremental.distance[v] <= previous[v] + 1e-12
        previous = list(incremental.distance)

