"""Unit tests for the Dijkstra search family of :class:`SearchEngine`,
including the paper's worked distances on the Figure 2 network."""

import pytest

from repro.exceptions import GraphError
from repro.network.engine import SearchEngine, engine_for

from ..conftest import V1, V2, V3, V4, V5, V6, V7, V8


class TestShortestPathCosts:
    def test_paper_distances(self, toy_network):
        dist = engine_for(toy_network).sssp(V6)
        # Example 2 / 3 / 7 worked values
        assert dist[V3] == pytest.approx(3.0)
        assert dist[V2] == pytest.approx(7.0)
        assert dist[V4] == pytest.approx(7.0)
        assert dist[V7] == pytest.approx(4.0)
        assert dist[V1] == pytest.approx(11.0)

    def test_source_distance_zero(self, toy_network):
        assert engine_for(toy_network).sssp(V1)[V1] == 0.0

    def test_line_network_costs(self, line_network):
        dist = engine_for(line_network).sssp(0)
        assert dist == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


class TestShortestPath:
    def test_path_and_cost(self, toy_network):
        path, cost = engine_for(toy_network).path(V1, V4)
        assert path == [V1, V2, V3, V4]
        assert cost == pytest.approx(12.0)

    def test_trivial_path(self, toy_network):
        path, cost = engine_for(toy_network).path(V3, V3)
        assert path == [V3]
        assert cost == 0.0

    def test_path_cost_matches_costs_array(self, grid_network):
        engine = engine_for(grid_network)
        costs = engine.sssp(0)
        for target in (7, 23, 35):
            path, cost = engine.path(0, target)
            assert cost == pytest.approx(costs[target])
            assert grid_network.path_cost(path) == pytest.approx(cost)

    def test_unreachable_raises(self):
        from repro.network.graph import RoadNetwork

        network = RoadNetwork(
            [(0, 0), (1, 0), (9, 9)], [(0, 1, 1.0)], validate_connected=False
        )
        with pytest.raises(GraphError, match="unreachable"):
            engine_for(network).path(0, 2)


class TestDistanceBetween:
    def test_matches_full_search(self, toy_network):
        engine = engine_for(toy_network)
        full = engine.sssp(V8)
        for target in range(8):
            assert engine.distance(V8, target) == pytest.approx(full[target])

    def test_same_node(self, toy_network):
        assert engine_for(toy_network).distance(V5, V5) == 0.0


class TestQueryPreprocessingSearch:
    def _masks(self, toy_network):
        is_existing = [False] * 8
        is_existing[V1] = is_existing[V2] = True
        is_candidate = [False] * 8
        for v in (V3, V4, V5):
            is_candidate[v] = True
        return is_existing, is_candidate

    def test_example7_search_from_v6(self, toy_network):
        """Example 7: from v6 the search finds RNN entry (v3, 3), then
        nn(v6) = v2 at distance 7."""
        is_existing, is_candidate = self._masks(toy_network)
        nn, dist, visited = engine_for(toy_network).query_search(
            V6, is_existing, is_candidate
        )
        assert nn == V2
        assert dist == pytest.approx(7.0)
        assert visited == [(V3, pytest.approx(3.0))]

    def test_search_from_v7_collects_three_candidates(self, toy_network):
        is_existing, is_candidate = self._masks(toy_network)
        nn, dist, visited = engine_for(toy_network).query_search(
            V7, is_existing, is_candidate
        )
        assert nn == V2
        assert dist == pytest.approx(11.0)
        assert dict(visited) == {
            V4: pytest.approx(3.0),
            V3: pytest.approx(7.0),
            V5: pytest.approx(7.0),
        }

    def test_query_on_existing_stop(self, toy_network):
        is_existing, is_candidate = self._masks(toy_network)
        nn, dist, visited = engine_for(toy_network).query_search(
            V1, is_existing, is_candidate
        )
        assert nn == V1
        assert dist == 0.0
        assert visited == []

    def test_no_existing_stop_raises(self, toy_network):
        is_candidate = [False] * 8
        with pytest.raises(GraphError, match="no existing bus stop"):
            engine_for(toy_network).query_search(V1, [False] * 8, is_candidate)


class TestMultiSource:
    def test_multi_source_is_min_of_singles(self, toy_network):
        engine = engine_for(toy_network)
        sources = [V1, V7]
        combined = engine.multi_source(sources)
        singles = [engine.sssp(s) for s in sources]
        for v in range(8):
            assert combined[v] == pytest.approx(min(s[v] for s in singles))

    def test_duplicate_sources(self, toy_network):
        dist = engine_for(toy_network).multi_source([V1, V1, V1])
        assert dist[V1] == 0.0


class TestIncrementalNearest:
    def test_matches_multi_source_after_each_add(self, toy_network):
        engine = engine_for(toy_network)
        incremental = engine.incremental_nearest()
        added = []
        for source in (V5, V1, V6):
            incremental.add_source(source)
            added.append(source)
            # Bit-identical: the fixed point of a multi-source search is
            # the pointwise minimum of the single-source ones.
            assert incremental.distance.tolist() == engine.multi_source(added)

    def test_add_source_is_lazy(self, line_network):
        engine = SearchEngine(line_network)
        incremental = engine.incremental_nearest(phase="lazy")
        base = engine.snapshot()
        cache = engine.cache_info()
        incremental.add_source(0)
        incremental.add_source(5)
        # Recording a source runs no search and touches no cache entry.
        assert engine.stats_since(base) == {}
        assert engine.cache_info() == cache
        # The first read folds both pending rows: one request each.
        assert incremental.distance.tolist() == [0.0, 1.0, 2.0, 2.0, 1.0, 0.0]
        folded = engine.stats_since(base)
        assert set(folded) == {"lazy"}
        assert folded["lazy"].searches + folded["lazy"].cache_hits == 2
        # A second read has nothing left to fold.
        after = engine.snapshot()
        assert incremental.distance.tolist() == [0.0, 1.0, 2.0, 2.0, 1.0, 0.0]
        assert engine.stats_since(after) == {}

    def test_duplicate_source_is_noop(self, toy_network):
        incremental = engine_for(toy_network).incremental_nearest()
        incremental.add_source(V1)
        before = incremental.distance.tolist()
        incremental.add_source(V1)
        assert incremental.distance.tolist() == before

    def test_sources_property(self, toy_network):
        incremental = engine_for(toy_network).incremental_nearest()
        incremental.add_source(V2)
        incremental.add_source(V4)
        assert incremental.sources == [V2, V4]

    def test_getitem(self, toy_network):
        incremental = engine_for(toy_network).incremental_nearest()
        incremental.add_source(V1)
        assert incremental[V2] == pytest.approx(4.0)
