"""A multimodal journey planner (walk + ride + transfer).

Figure 11b of the paper evaluates the *travel cost* of whole trips —
walking to a stop, riding buses, transferring — in minutes, before and
after the new route is incorporated.  This module implements that cost
model as a Dijkstra search over an implicit layered graph:

* **walk layer** — the road network, traversed at walking speed;
* **ride layers** — one chain of states per route (route, stop index),
  traversed at bus speed along the route's road path;
* **board edges** — walk node -> ride state at that stop, charged a
  boarding penalty (average wait);
* **alight edges** — ride state -> walk node, free.

A transfer therefore costs alight + walk (possibly zero) + board, which
reproduces the paper's "walking cost + transit cost + transfer cost"
decomposition without modelling timetables.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..network.engine import engine_for
from ..network.graph import RoadNetwork
from .network import TransitNetwork
from .route import BusRoute

INF = math.inf


@dataclass(frozen=True)
class JourneyLeg:
    """One leg of a reconstructed itinerary.

    Attributes:
        mode: ``"walk"`` or ``"ride"``.
        nodes: the road nodes traversed (for rides: the stops passed).
        route_id: the route ridden (rides only).
        minutes: the leg's duration, including the boarding penalty for
            ride legs.
    """

    mode: str
    nodes: Tuple[int, ...]
    minutes: float
    route_id: Optional[str] = None


@dataclass(frozen=True)
class Itinerary:
    """A full door-to-door journey.

    Attributes:
        legs: walk/ride legs in travel order (consecutive same-mode walk
            steps are merged).
        minutes: total duration (equals
            :meth:`JourneyPlanner.travel_time` for the same pair).
    """

    legs: Tuple[JourneyLeg, ...]
    minutes: float

    @property
    def num_boardings(self) -> int:
        """How many buses the journey boards."""
        return sum(1 for leg in self.legs if leg.mode == "ride")

    def describe(self) -> str:
        """A compact human-readable line per leg."""
        parts = []
        for leg in self.legs:
            if leg.mode == "walk":
                parts.append(
                    f"walk {leg.nodes[0]}->{leg.nodes[-1]} "
                    f"({leg.minutes:.1f} min)"
                )
            else:
                parts.append(
                    f"ride {leg.route_id} {leg.nodes[0]}->{leg.nodes[-1]} "
                    f"({leg.minutes:.1f} min)"
                )
        return "; ".join(parts) if parts else "stay put"


class JourneyPlanner:
    """Door-to-door travel time queries over a transit network.

    Args:
        transit: the transit network (existing routes, or existing plus
            the newly planned one via :meth:`TransitNetwork.with_route`).
        walk_speed_kmh: walking speed (default 5 km/h).
        bus_speed_kmh: in-vehicle bus speed (default 20 km/h, an urban
            average including dwell times).
        boarding_penalty_min: minutes charged every time a bus is
            boarded (average wait at the stop).
    """

    def __init__(
        self,
        transit: TransitNetwork,
        *,
        walk_speed_kmh: float = 5.0,
        bus_speed_kmh: float = 20.0,
        boarding_penalty_min: float = 5.0,
    ) -> None:
        if walk_speed_kmh <= 0 or bus_speed_kmh <= 0:
            raise ConfigurationError("speeds must be positive")
        if boarding_penalty_min < 0:
            raise ConfigurationError("boarding penalty must be non-negative")
        self._transit = transit
        self._network: RoadNetwork = transit.road_network
        # The walk layer rides on the shared engine's CSR adjacency and
        # accounts its searches to the engine's "journey" counters.
        self._engine = engine_for(self._network)
        self._walk_min_per_km = 60.0 / walk_speed_kmh
        self._bus_min_per_km = 60.0 / bus_speed_kmh
        self._board_min = boarding_penalty_min
        self._build_ride_states()

    def _build_ride_states(self) -> None:
        """Assign a dense state id to every (route, stop position) and
        precompute ride-segment times between consecutive stops."""
        n = self._network.num_nodes
        self._ride_offset = n
        self._ride_node: List[int] = []        # state -> road node of the stop
        self._ride_route: List[str] = []       # state -> route id
        self._ride_next: List[Tuple[int, float]] = []  # state -> (next state, minutes)
        self._ride_prev: List[Tuple[int, float]] = []
        self._states_at_node: Dict[int, List[int]] = {}
        state = 0
        for route in self._transit.routes():
            seg_minutes = self._segment_minutes(route)
            first_state = state
            for pos, stop in enumerate(route.stops):
                self._ride_node.append(stop)
                self._ride_route.append(route.route_id)
                self._states_at_node.setdefault(stop, []).append(
                    self._ride_offset + state
                )
                state += 1
            for pos in range(len(route.stops)):
                sid = first_state + pos
                if pos + 1 < len(route.stops):
                    self._ride_next.append((sid + 1, seg_minutes[pos]))
                else:
                    self._ride_next.append((-1, 0.0))
                if pos > 0:
                    self._ride_prev.append((sid - 1, seg_minutes[pos - 1]))
                else:
                    self._ride_prev.append((-1, 0.0))
        self._num_states = self._ride_offset + state

    def _segment_minutes(self, route: BusRoute) -> List[float]:
        """In-vehicle minutes between consecutive stops of ``route``."""
        costs = route.adjacent_stop_costs(self._network)
        return [c * self._bus_min_per_km for c in costs]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def travel_time(self, origin: int, destination: int) -> float:
        """Door-to-door minutes from ``origin`` to ``destination``.

        The all-walking journey is always admissible, so the result is
        finite on a connected network and never exceeds the pure walking
        time.
        """
        if origin == destination:
            return 0.0
        dist, _ = self._run_dijkstra(origin, destination)
        return dist.get(destination, INF)

    def average_travel_time(
        self, trips: Sequence[Tuple[int, int]]
    ) -> float:
        """Mean door-to-door minutes over origin/destination pairs."""
        if not trips:
            raise ConfigurationError("average_travel_time needs at least one trip")
        return sum(self.travel_time(o, d) for o, d in trips) / len(trips)

    # ------------------------------------------------------------------
    # Itinerary reconstruction
    # ------------------------------------------------------------------

    def journey(self, origin: int, destination: int) -> Itinerary:
        """The fastest itinerary as explicit walk/ride legs.

        The total duration equals :meth:`travel_time` for the same
        pair; the legs say *how* — where to walk, which route to board,
        where to alight.
        """
        if origin == destination:
            return Itinerary(legs=(), minutes=0.0)
        dist, parent = self._run_dijkstra(origin, destination)
        if destination not in dist:
            return Itinerary(legs=(), minutes=INF)
        states = [destination]
        while states[-1] != origin:
            states.append(parent[states[-1]])
        states.reverse()
        return self._decode(states, dist)

    def _run_dijkstra(
        self, origin: int, destination: int
    ) -> Tuple[Dict[int, float], Dict[int, int]]:
        """The one Dijkstra over the layered graph, shared by
        :meth:`travel_time` and :meth:`journey`.

        Every relaxation goes through :func:`_relax` below, so the two
        public queries cannot drift apart in either their distances or
        their search accounting again (an earlier revision of the
        parent-tracking twin of this loop forgot to count the alight
        push).  Stops as soon as ``destination`` settles.
        """
        csr = self._engine.csr
        indptr, targets, costs = csr.indptr, csr.targets, csr.costs
        stats = self._engine.counters("journey")
        stats.searches += 1
        dist: Dict[int, float] = {origin: 0.0}
        parent: Dict[int, int] = {}
        heap: List[Tuple[float, int]] = [(0.0, origin)]
        offset = self._ride_offset

        def _relax(u: int, v: int, nd: float) -> None:
            if nd < dist.get(v, INF):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
                stats.pushes += 1

        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, INF):
                continue
            stats.settled += 1
            if u == destination:
                break
            if u < offset:
                # Known hot loop (ROADMAP item 2): the walk layer
                # relaxes CSR slices in Python because the journey graph
                # interleaves board/alight edges; pending a multimodal
                # kernel primitive.  The suppression count is pinned by
                # tests/lint/test_analyzer.py — it may only shrink.
                for i in range(indptr[u], indptr[u + 1]):  # reprolint: disable=RL012
                    _relax(u, targets[i], d + costs[i] * self._walk_min_per_km)
                # board edges
                for state in self._states_at_node.get(u, ()):
                    _relax(u, state, d + self._board_min)
            else:
                sid = u - offset
                # alight edge (free)
                _relax(u, self._ride_node[sid], d)
                # ride edges along the route, both directions
                for nxt, minutes in (self._ride_next[sid], self._ride_prev[sid]):
                    if nxt >= 0:
                        _relax(u, offset + nxt, d + minutes)
        return dist, parent

    def _decode(
        self, states: Sequence[int], dist: Dict[int, float]
    ) -> Itinerary:
        offset = self._ride_offset
        legs: List[JourneyLeg] = []
        walk_nodes: List[int] = []
        walk_start_time = 0.0
        ride_stops: List[int] = []
        ride_start_time = 0.0
        ride_route: Optional[str] = None

        def flush_walk(end_time: float) -> None:
            nonlocal walk_nodes
            if len(walk_nodes) > 1:
                legs.append(
                    JourneyLeg(
                        mode="walk",
                        nodes=tuple(walk_nodes),
                        minutes=end_time - walk_start_time,
                    )
                )
            walk_nodes = []

        for index, state in enumerate(states):
            time_here = dist[state]
            if state < offset:
                if ride_stops:
                    # alighting: close the ride leg
                    legs.append(
                        JourneyLeg(
                            mode="ride",
                            nodes=tuple(ride_stops),
                            minutes=time_here - ride_start_time,
                            route_id=ride_route,
                        )
                    )
                    ride_stops = []
                    ride_route = None
                if not walk_nodes:
                    walk_start_time = time_here
                walk_nodes.append(state)
            else:
                sid = state - offset
                if not ride_stops:
                    # boarding: close any walk leg at the stop
                    flush_walk(dist[states[index - 1]])
                    ride_start_time = dist[states[index - 1]]
                    ride_route = self._ride_route[sid]
                ride_stops.append(self._ride_node[sid])
        flush_walk(dist[states[-1]])
        total = dist[states[-1]]
        return Itinerary(legs=tuple(legs), minutes=total)


def travel_cost_decrease(
    transit_before: TransitNetwork,
    new_route: BusRoute,
    trips: Sequence[Tuple[int, int]],
    *,
    walk_speed_kmh: float = 5.0,
    bus_speed_kmh: float = 20.0,
    boarding_penalty_min: float = 5.0,
) -> float:
    """Average decrease (minutes) in door-to-door travel time once
    ``new_route`` joins the transit system — the quantity of Fig. 11b.

    Non-negative by construction: adding a route can only add journey
    options.
    """
    kwargs = dict(
        walk_speed_kmh=walk_speed_kmh,
        bus_speed_kmh=bus_speed_kmh,
        boarding_penalty_min=boarding_penalty_min,
    )
    before = JourneyPlanner(transit_before, **kwargs)
    after = JourneyPlanner(transit_before.with_route(new_route), **kwargs)
    total = 0.0
    for origin, destination in trips:
        total += before.travel_time(origin, destination) - after.travel_time(
            origin, destination
        )
    return total / len(trips) if trips else 0.0
