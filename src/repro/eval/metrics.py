"""Evaluation metrics shared by all experiments.

The quantitative yardsticks of Section VI: walking cost, connectivity,
utility (all exact, via :func:`repro.core.evaluate_route`), the
travel-cost decrease of Fig. 11b (via the journey planner), and the
case studies' uncovered-demand coverage.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from ..core.numeric import is_zero
from ..core.utility import BRRInstance
from ..demand.query import QuerySet
from ..exceptions import ConfigurationError
from ..network.engine import engine_for
from ..transit.network import TransitNetwork
from ..transit.route import BusRoute


def walking_cost(instance: BRRInstance, route: BusRoute) -> float:
    """``Walk(S_existing ∪ B_r*)`` — Figs. 7 and 9 (lower is better)."""
    new_stops = [s for s in route.stops if instance.is_candidate[s]]
    return instance.baseline_walk() - instance.walk_decrease(new_stops)


def connectivity(instance: BRRInstance, route: BusRoute) -> int:
    """``Connect(B_r*)`` — Figs. 8 and 10 (higher is better)."""
    return instance.connectivity(route.stops)


def utility(instance: BRRInstance, route: BusRoute) -> float:
    """``U(B_r*)`` of Equation 1."""
    return instance.utility(route.stops)


def approximation_ratio(algorithm_utility: float, optimal_utility: float) -> float:
    """``U(B_alg) / U(B_OPT)`` (Fig. 11a); 1.0 when both are zero."""
    if optimal_utility < 0:
        raise ConfigurationError("optimal utility cannot be negative")
    if is_zero(optimal_utility):
        return 1.0
    return algorithm_utility / optimal_utility


def uncovered_demand_coverage(
    queries: QuerySet,
    transit: TransitNetwork,
    route: BusRoute,
    *,
    walk_limit_km: float = 0.5,
) -> Tuple[int, int]:
    """The Chicago case-study metric: of the query nodes farther than
    ``walk_limit_km`` from every *existing* stop, how many does the new
    route bring within ``walk_limit_km``?

    Returns:
        ``(covered_now, previously_uncovered)`` — multiset counts.
    """
    engine = engine_for(queries.network)
    existing_dist = engine.multi_source(transit.existing_stops, phase="evaluate")
    uncovered = [v for v in queries.nodes if existing_dist[v] > walk_limit_km]
    if not uncovered:
        return (0, 0)
    route_dist = engine.multi_source(list(route.stops), phase="evaluate")
    covered_now = sum(1 for v in uncovered if route_dist[v] <= walk_limit_km)
    return covered_now, len(uncovered)


def mean_walk_to_nearest_stop(
    queries: QuerySet, stops: Sequence[int]
) -> float:
    """Average walking distance from the demand to its nearest stop —
    a per-passenger view of ``Walk`` used in the examples."""
    if not stops:
        raise ConfigurationError("needs at least one stop")
    dist = engine_for(queries.network).multi_source(list(stops), phase="evaluate")
    total = 0.0
    for v in queries.nodes:
        if not math.isfinite(dist[v]):
            raise ConfigurationError(f"query node {v} cannot reach any stop")
        total += dist[v]
    return total / len(queries)
