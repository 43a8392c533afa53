"""Unit tests for the multimodal journey planner."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.network.engine import engine_for
from repro.transit.journey import JourneyPlanner, travel_cost_decrease
from repro.transit.network import TransitNetwork
from repro.transit.route import BusRoute

from ..conftest import V1, V2, V3, V4, V5, V6


@pytest.fixture
def line_transit(line_network):
    """One route along the whole 6-node line, stops at 0, 2, 4, 5."""
    route = BusRoute("line", [0, 2, 4, 5], [0, 1, 2, 3, 4, 5])
    return TransitNetwork(line_network, [route])


class TestTravelTime:
    def test_same_node_zero(self, line_transit):
        planner = JourneyPlanner(line_transit)
        assert planner.travel_time(3, 3) == 0.0

    def test_pure_walk_when_no_useful_route(self, line_transit):
        # 1 km at 5 km/h = 12 minutes; bus cannot beat it over one hop
        # once the 5-minute boarding penalty is paid... actually it can
        # never since walking distance equals riding distance here.
        planner = JourneyPlanner(line_transit, walk_speed_kmh=5.0)
        assert planner.travel_time(0, 1) == pytest.approx(12.0)

    def test_bus_beats_walking_on_long_trips(self, line_transit):
        planner = JourneyPlanner(
            line_transit, walk_speed_kmh=5.0, bus_speed_kmh=20.0,
            boarding_penalty_min=5.0,
        )
        # 0 -> 5: walking = 60 min; board at 0, ride to 5 = 5 + 15 min.
        assert planner.travel_time(0, 5) == pytest.approx(20.0)

    def test_walk_then_ride(self, line_transit):
        planner = JourneyPlanner(
            line_transit, walk_speed_kmh=5.0, bus_speed_kmh=20.0,
            boarding_penalty_min=5.0,
        )
        # 1 -> 5: walk back to stop 0 (12) + 5 + ride 15 = 32, or walk
        # to stop 2 (12) + 5 + ride 9 = 26, or pure walk 48.
        assert planner.travel_time(1, 5) == pytest.approx(26.0)

    def test_rides_both_directions(self, line_transit):
        planner = JourneyPlanner(
            line_transit, walk_speed_kmh=5.0, bus_speed_kmh=20.0,
            boarding_penalty_min=1.0,
        )
        forward = planner.travel_time(0, 5)
        backward = planner.travel_time(5, 0)
        assert forward == pytest.approx(backward)

    def test_never_worse_than_walking(self, toy_transit):
        planner = JourneyPlanner(toy_transit)
        engine = engine_for(toy_transit.road_network)
        walk_min_per_km = 60.0 / 5.0
        for origin in range(8):
            costs = engine.sssp(origin)
            for dest in range(8):
                assert (
                    planner.travel_time(origin, dest)
                    <= costs[dest] * walk_min_per_km + 1e-9
                )

    def test_invalid_speeds(self, line_transit):
        with pytest.raises(ConfigurationError):
            JourneyPlanner(line_transit, walk_speed_kmh=0.0)
        with pytest.raises(ConfigurationError):
            JourneyPlanner(line_transit, bus_speed_kmh=-1.0)
        with pytest.raises(ConfigurationError):
            JourneyPlanner(line_transit, boarding_penalty_min=-1.0)

    def test_average_travel_time(self, line_transit):
        planner = JourneyPlanner(line_transit)
        trips = [(0, 5), (5, 0)]
        expected = (planner.travel_time(0, 5) + planner.travel_time(5, 0)) / 2
        assert planner.average_travel_time(trips) == pytest.approx(expected)

    def test_average_requires_trips(self, line_transit):
        with pytest.raises(ConfigurationError):
            JourneyPlanner(line_transit).average_travel_time([])


class TestTravelCostDecrease:
    def test_non_negative(self, toy_transit):
        new_route = BusRoute("new", [V2, V3, V4], [V2, V3, V4])
        trips = [(V6, V1), (V1, V5), (V5, V6)]
        decrease = travel_cost_decrease(toy_transit, new_route, trips)
        assert decrease >= -1e-9

    def test_useful_route_decreases_cost(self, line_network):
        # Sparse transit: a single stop (no rides possible).
        lonely = TransitNetwork(line_network, [BusRoute("r", [0])])
        new_route = BusRoute("new", [0, 2, 4, 5], [0, 1, 2, 3, 4, 5])
        trips = [(0, 5), (1, 5), (0, 4)]
        decrease = travel_cost_decrease(lonely, new_route, trips)
        assert decrease > 0.0

    def test_redundant_route_changes_nothing(self, line_transit):
        duplicate = BusRoute("dup", [0, 2, 4, 5], [0, 1, 2, 3, 4, 5])
        trips = [(0, 5), (1, 4)]
        assert travel_cost_decrease(line_transit, duplicate, trips) == (
            pytest.approx(0.0)
        )


class TestStatsParity:
    """`travel_time` and `journey` share one Dijkstra, so their search
    accounting must be identical for the same OD pair (a parent-tracking
    fork of the loop once under-counted the alight-edge pushes)."""

    def _journey_delta(self, planner, run):
        engine = planner._engine
        before = engine.counters("journey").copy()
        run()
        return engine.counters("journey") - before

    @pytest.mark.parametrize("pair", [(0, 5), (1, 5), (5, 0), (1, 4)])
    def test_travel_time_and_journey_counts_equal(self, line_transit, pair):
        origin, destination = pair
        planner = JourneyPlanner(line_transit)
        time_stats = self._journey_delta(
            planner, lambda: planner.travel_time(origin, destination)
        )
        itinerary_stats = self._journey_delta(
            planner, lambda: planner.journey(origin, destination)
        )
        assert time_stats.searches == itinerary_stats.searches == 1
        assert time_stats.settled == itinerary_stats.settled
        assert time_stats.pushes == itinerary_stats.pushes
        # The alight push must actually be counted: trips that ride a
        # bus push at least one alight edge.
        itinerary = planner.journey(origin, destination)
        if itinerary.num_boardings:
            assert time_stats.pushes > 0

    def test_journey_minutes_equal_travel_time(self, line_transit):
        planner = JourneyPlanner(line_transit)
        for origin in range(6):
            for destination in range(6):
                assert planner.journey(origin, destination).minutes == (
                    pytest.approx(planner.travel_time(origin, destination))
                )
