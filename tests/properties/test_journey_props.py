"""Property tests for the multimodal journey planner."""

import pytest

from repro.network.engine import engine_for
from repro.transit.builder import build_transit_network
from repro.transit.journey import JourneyPlanner
from repro.transit.network import TransitNetwork
from repro.transit.route import BusRoute


@pytest.fixture(scope="module")
def planner_setup():
    from repro.network.generators import grid_city

    network = grid_city(8, 8, seed=5)
    transit = build_transit_network(
        network, num_routes=4, seed=6, stop_spacing_km=0.8
    )
    return network, transit


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_by_walking(planner_setup, seed):
    """Travel time never exceeds pure walking time."""
    import numpy as np

    network, transit = planner_setup
    planner = JourneyPlanner(transit, walk_speed_kmh=5.0)
    rng = np.random.default_rng(seed)
    walk_min_per_km = 60.0 / 5.0
    for _ in range(15):
        origin = int(rng.integers(0, network.num_nodes))
        costs = engine_for(network).sssp(origin)
        dest = int(rng.integers(0, network.num_nodes))
        assert planner.travel_time(origin, dest) <= (
            costs[dest] * walk_min_per_km + 1e-6
        )


@pytest.mark.parametrize("seed", [3, 4])
def test_symmetric(planner_setup, seed):
    """With symmetric boarding penalties and an undirected network, the
    journey time is symmetric in (origin, destination)."""
    import numpy as np

    network, transit = planner_setup
    planner = JourneyPlanner(transit)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        a = int(rng.integers(0, network.num_nodes))
        b = int(rng.integers(0, network.num_nodes))
        assert planner.travel_time(a, b) == pytest.approx(
            planner.travel_time(b, a), rel=1e-9
        )


@pytest.mark.parametrize("seed", [5, 6])
def test_adding_route_never_hurts(planner_setup, seed):
    """More service can only add options: travel times after adding any
    route are <= before, pointwise."""
    import numpy as np

    network, transit = planner_setup
    rng = np.random.default_rng(seed)
    # build a random new route along a shortest path
    from repro.transit.builder import place_stops_along_path

    a = int(rng.integers(0, network.num_nodes))
    b = int(rng.integers(0, network.num_nodes))
    if a == b:
        b = (b + 1) % network.num_nodes
    path, _ = engine_for(network).path(a, b)
    stops = place_stops_along_path(network, path, 1.0)
    if len(stops) < 2:
        pytest.skip("degenerate random route")
    route = BusRoute("extra", stops, path)

    before = JourneyPlanner(transit)
    after = JourneyPlanner(transit.with_route(route))
    for _ in range(12):
        o = int(rng.integers(0, network.num_nodes))
        d = int(rng.integers(0, network.num_nodes))
        assert after.travel_time(o, d) <= before.travel_time(o, d) + 1e-6


def test_higher_boarding_penalty_never_faster(planner_setup):
    network, transit = planner_setup
    cheap = JourneyPlanner(transit, boarding_penalty_min=1.0)
    pricey = JourneyPlanner(transit, boarding_penalty_min=10.0)
    for origin, dest in ((0, network.num_nodes - 1), (3, 40), (10, 55)):
        assert cheap.travel_time(origin, dest) <= (
            pricey.travel_time(origin, dest) + 1e-9
        )


def test_faster_buses_never_slower(planner_setup):
    network, transit = planner_setup
    slow = JourneyPlanner(transit, bus_speed_kmh=12.0)
    fast = JourneyPlanner(transit, bus_speed_kmh=30.0)
    for origin, dest in ((0, network.num_nodes - 1), (5, 50)):
        assert fast.travel_time(origin, dest) <= (
            slow.travel_time(origin, dest) + 1e-9
        )


def test_triangle_inequality_relaxed(planner_setup):
    """Journey time satisfies a relaxed triangle inequality: going via a
    waypoint can only add (each leg re-pays boarding penalties, so the
    direct trip is never more than the sum of the two legs)."""
    network, transit = planner_setup
    planner = JourneyPlanner(transit)
    triples = [(0, 20, 45), (7, 33, 60), (12, 25, 50)]
    for a, b, c in triples:
        direct = planner.travel_time(a, c)
        via = planner.travel_time(a, b) + planner.travel_time(b, c)
        assert direct <= via + 1e-6
