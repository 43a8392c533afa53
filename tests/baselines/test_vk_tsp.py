"""Unit tests for the vk-TSP baseline."""

import numpy as np
import pytest

from repro.baselines.vk_tsp import VkTSP, _TrajectoryIndex
from repro.baselines.trajectories import synthesize_trajectories
from repro.core.config import EBRRConfig
from repro.network.engine import engine_for


@pytest.fixture
def instance(small_city):
    return small_city.instance(alpha=25.0)


@pytest.fixture
def config():
    return EBRRConfig(max_stops=8, max_adjacent_cost=2.0, alpha=25.0)


class TestPlan:
    def test_produces_route(self, instance, config):
        plan = VkTSP(seed=1).plan(instance, config)
        assert 2 <= plan.route.num_stops <= config.max_stops
        plan.route.validate_on(instance.network)

    def test_route_path_contiguous(self, instance, config):
        plan = VkTSP(seed=2).plan(instance, config)
        assert instance.network.is_path(plan.route.path)

    def test_deterministic(self, instance, config):
        a = VkTSP(seed=4).plan(instance, config)
        b = VkTSP(seed=4).plan(instance, config)
        assert a.route.stops == b.route.stops

    def test_timings(self, instance, config):
        plan = VkTSP(seed=1).plan(instance, config)
        assert plan.timings["total"] >= 0
        assert plan.timings["preprocess"] >= 0

    def test_longer_k_longer_route(self, instance):
        short = VkTSP(seed=3).plan(
            instance, EBRRConfig(max_stops=4, max_adjacent_cost=2.0, alpha=25.0)
        )
        long = VkTSP(seed=3).plan(
            instance, EBRRConfig(max_stops=16, max_adjacent_cost=2.0, alpha=25.0)
        )
        assert long.route.length(instance.network) >= (
            short.route.length(instance.network) - 1e-9
        )

    def test_route_follows_demand(self, instance, config):
        """The grown route hugs the demand corridors: its summed
        trajectory distance beats the average random *contiguous* path
        of the same node count (apples to apples — a scattered random
        node set is not a bus route)."""
        planner = VkTSP(seed=5)
        plan = planner.plan(instance, config)
        index = planner._preprocess(instance)
        route_dist = _summed_distance(index, plan.route.path)

        rng = np.random.default_rng(0)
        random_dists = []
        for _ in range(5):
            a, b = rng.integers(0, instance.network.num_nodes, size=2)
            if a == b:
                continue
            path, _cost = engine_for(instance.network).path(int(a), int(b))
            random_dists.append(
                _summed_distance(index, path[: len(plan.route.path)])
            )
        assert route_dist < sum(random_dists) / len(random_dists)


class TestTrajectoryIndex:
    def test_distances_match_brute_force(self, instance):
        trajectories = synthesize_trajectories(instance.queries, 20, seed=1)
        index = _TrajectoryIndex(instance, trajectories)
        coords = instance.network.coordinates()
        node = 0
        per_traj = index.distances_from_node(node)
        assert len(per_traj) == 20
        # brute force on the same decimation (every 2nd node + endpoint)
        import math

        for t, path in enumerate(trajectories):
            sampled = path[::2]
            if sampled[-1] != path[-1]:
                sampled.append(path[-1])
            expected = min(
                math.dist(coords[node], coords[v]) for v in sampled
            )
            assert per_traj[t] == pytest.approx(expected)

    def test_busiest_edge_is_max_frequency(self, instance):
        trajectories = synthesize_trajectories(instance.queries, 30, seed=2)
        index = _TrajectoryIndex(instance, trajectories)
        from repro.baselines.trajectories import edge_frequencies

        freq = edge_frequencies(trajectories)
        edge = index.busiest_edge()
        assert freq[edge] == max(freq.values())


def _summed_distance(index, nodes):
    import numpy as np

    current = index.distances_from_node(nodes[0])
    for node in nodes[1:]:
        current = np.minimum(current, index.distances_from_node(node))
    return float(current.sum())
