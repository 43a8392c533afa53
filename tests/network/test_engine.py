"""SearchEngine: agreement with networkx, caching, and statistics
accounting."""

import math

import networkx as nx
import pytest

from repro.exceptions import ConfigurationError
from repro.network.engine import (
    SearchEngine,
    SearchStats,
    available_kernels,
    engine_for,
    resolve_kernel,
)
from repro.network.generators import grid_city, radial_city, sprawl_city
from repro.network.graph import RoadNetwork


def _cities():
    return [
        grid_city(5, 5, seed=1),
        radial_city(num_boroughs=2, nodes_per_borough=60, seed=2),
        sprawl_city(120, seed=3),
    ]


def _nx_graph(network):
    graph = nx.Graph()
    graph.add_nodes_from(network.nodes())
    for u, v, cost in network.edges():
        graph.add_edge(u, v, weight=cost)
    return graph


def _assert_row_matches(row, reference):
    """``row`` (inf = unreached) against a networkx ``{node: length}``."""
    assert [v for v, d in enumerate(row) if d != math.inf] == sorted(reference)
    for v, d in reference.items():
        assert row[v] == pytest.approx(d)


@pytest.fixture
def network():
    return grid_city(5, 5, seed=7)


@pytest.fixture
def engine(network):
    return SearchEngine(network)


# ----------------------------------------------------------------------
# Agreement with networkx on the three city families
# ----------------------------------------------------------------------


@pytest.mark.parametrize("city_index", [0, 1, 2])
def test_sssp_matches_networkx(city_index):
    network = _cities()[city_index]
    engine = SearchEngine(network)
    graph = _nx_graph(network)
    for source in (0, network.num_nodes // 2, network.num_nodes - 1):
        _assert_row_matches(
            engine.sssp(source), nx.single_source_dijkstra_path_length(graph, source)
        )


@pytest.mark.parametrize("city_index", [0, 1, 2])
def test_multi_source_matches_networkx(city_index):
    network = _cities()[city_index]
    engine = SearchEngine(network)
    graph = _nx_graph(network)
    sources = [0, network.num_nodes // 2, network.num_nodes - 1]
    _assert_row_matches(
        engine.multi_source(sources),
        nx.multi_source_dijkstra_path_length(graph, set(sources)),
    )


@pytest.mark.parametrize("city_index", [0, 1, 2])
def test_path_and_distance_match_networkx(city_index):
    network = _cities()[city_index]
    engine = SearchEngine(network)
    graph = _nx_graph(network)
    pairs = [(0, network.num_nodes - 1), (1, network.num_nodes // 2)]
    for source, target in pairs:
        expected = nx.dijkstra_path_length(graph, source, target)
        path, cost = engine.path(source, target)
        assert path[0] == source and path[-1] == target
        assert network.is_path(path)
        assert network.path_cost(path) == pytest.approx(cost)
        assert cost == pytest.approx(expected)
        assert engine.distance(source, target) == pytest.approx(expected)


def test_nodes_within_ball_is_correct(network, engine):
    source = 6
    radius = 1.0
    ball = engine.nodes_within(source, radius)
    full = engine.sssp(source)
    expected = {v for v in network.nodes() if v != source and full[v] <= radius + 1e-9}
    assert {v for v, _ in ball} == expected
    for v, d in ball:
        assert d == full[v]


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------


def test_sssp_row_is_cached(engine):
    first = engine.sssp(0)
    info = engine.cache_info()
    assert info.misses == 1 and info.hits == 0
    second = engine.sssp(0)
    assert second is first
    assert engine.cache_info().hits == 1


def test_lru_eviction_with_tiny_cache(network):
    engine = SearchEngine(network, cache_size=2)
    engine.sssp(0)
    engine.sssp(1)
    engine.sssp(2)  # evicts the row for source 0
    assert engine.cache_info().evictions == 1
    row1 = engine.sssp(1)  # still resident
    hits = engine.cache_info().hits
    assert hits == 1
    engine.sssp(0)  # re-miss after eviction
    assert engine.cache_info().misses == 4


def test_uncached_flag_bypasses_the_store(engine):
    engine.sssp(0, cached=False)
    info = engine.cache_info()
    assert info.rows == 0
    assert info.misses == 0 and info.hits == 0


def test_clear_cache(engine):
    engine.sssp(0)
    engine.path(0, 5)
    assert engine.cache_info().rows >= 1
    engine.clear_cache()
    info = engine.cache_info()
    assert info.rows == 0 and info.points == 0


# ----------------------------------------------------------------------
# Statistics accounting
# ----------------------------------------------------------------------


def test_stats_accumulate_per_phase(engine):
    engine.sssp(0, phase="preprocess")
    engine.sssp(1, phase="selection")
    engine.sssp(1, phase="selection")  # cache hit
    stats = engine.stats
    assert stats["preprocess"].searches == 1
    # The repeated call is served from the cache: it counts as a hit,
    # not as a search actually run.
    assert stats["selection"].searches == 1
    assert stats["selection"].cache_hits == 1
    assert stats["preprocess"].settled > 0
    assert stats["preprocess"].pushes > 0
    total = engine.total_stats()
    assert total.searches == 2
    assert total.cache_hits == 1


def test_snapshot_delta(engine):
    engine.sssp(0, phase="a")
    base = engine.snapshot()
    engine.sssp(1, phase="b")
    delta = engine.stats_since(base)
    assert "a" not in delta  # no new work in phase a
    assert delta["b"].searches == 1


def test_stats_arithmetic():
    a = SearchStats(searches=2, cache_hits=1, settled=10, pushes=12)
    b = SearchStats(searches=1, cache_hits=0, settled=4, pushes=5)
    s = a + b
    assert (s.searches, s.settled) == (3, 14)
    d = s - b
    assert d.as_dict() == a.as_dict()
    assert bool(SearchStats()) is False
    assert bool(a) is True


def test_engine_for_is_shared_per_network(network):
    first = engine_for(network)
    second = engine_for(network)
    assert first is second
    other = grid_city(4, 4, seed=9)
    assert engine_for(other) is not first


# ----------------------------------------------------------------------
# Point-cache semantics of distance()
# ----------------------------------------------------------------------


class TestDistancePointCache:
    def test_unbounded_unreachable_is_cached(self):
        coords = [(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 0.0)]
        edges = [(0, 1, 1.0), (2, 3, 1.0)]
        network = RoadNetwork(coords, edges, validate_connected=False)
        engine = SearchEngine(network)
        assert engine.distance(0, 3) == math.inf
        misses = engine.cache_info().misses
        assert engine.distance(0, 3) == math.inf  # served from cache
        assert engine.cache_info().misses == misses


# ----------------------------------------------------------------------
# The label-field cache
# ----------------------------------------------------------------------


class TestLabelFieldCache:
    def _stops(self, network, m=7):
        return [u for u in range(network.num_nodes) if u % m == 1]

    def test_cached_by_fingerprint(self, network):
        engine = SearchEngine(network)
        stops = self._stops(network)
        first = engine.multi_source_labels(stops)
        # Same set, different order / duplicates: same fingerprint.
        again = engine.multi_source_labels(list(reversed(stops)) + stops[:1])
        assert again is first

    def test_label_is_nearest_stop_of_query_search(self, network):
        engine = SearchEngine(network)
        n = network.num_nodes
        stops = self._stops(network)
        is_existing = [False] * n
        for s in stops:
            is_existing[s] = True
        field = engine.multi_source_labels(stops)
        no_candidates = [False] * n
        for q in range(0, n, 5):
            nn_stop, _nn_dist, _visited = engine.query_search(
                q, is_existing, no_candidates
            )
            assert field.label[q] == nn_stop


class TestKernelResolution:
    """$REPRO_KERNEL / explicit-name validation (resolve_kernel)."""

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel(None).name == "vectorized"

    def test_env_picks_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", " python ")
        assert resolve_kernel(None).name == "python"

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_kernel("turbo")
        message = str(excinfo.value)
        assert "'turbo'" in message
        for name in available_kernels():
            assert name in message

    def test_unknown_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ConfigurationError, match=r"\$REPRO_KERNEL"):
            resolve_kernel(None)

    def test_explicit_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")  # never consulted
        assert resolve_kernel("python").name == "python"

    def test_instance_passthrough(self, network):
        kernel = resolve_kernel("python")
        assert resolve_kernel(kernel) is kernel
