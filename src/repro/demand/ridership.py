"""Ridership-driven demand extraction (the case-study workloads).

The Orlando case study (Fig. 1) builds its query multiset from Lynx
ridership data; the Chicago case study (Fig. 12) highlights demand that
the current network leaves "uncovered".  Real feeds are not available
offline, so :func:`ridership_demand` simulates the same extraction:

* a share of demand proportional to *stop-level ridership* — each
  existing stop gets a ridership weight (heavy-tailed, so a few hub
  stops dominate, like real boarding counts) and spawns query nodes
  around itself;
* a share of *growth-corridor* demand placed in clusters far from every
  existing stop, representing the new neighbourhoods (Lake Nona, the
  airport corridor) whose trips the network misses today.

The split between the two shares is the experiment knob: the paper's
case studies succeed precisely because EBRR chases the second share
while the baselines chase the first.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..exceptions import DemandError
from ..network.engine import engine_for
from ..network.graph import RoadNetwork
from ..transit.network import TransitNetwork
from .generators import snap
from .query import QuerySet


def ridership_demand(
    transit: TransitNetwork,
    num_nodes: int,
    *,
    growth_fraction: float = 0.45,
    num_growth_clusters: int = 3,
    sigma_km: float = 0.6,
    pareto_shape: float = 1.2,
    seed: int = 0,
    name: str = "ridership",
) -> QuerySet:
    """Simulated ridership-extracted demand (see module docstring).

    Args:
        transit: the existing transit network.
        num_nodes: size of the multiset ``Q``.
        growth_fraction: share of demand in uncovered growth clusters.
        num_growth_clusters: how many growth neighbourhoods to create.
        sigma_km: spatial spread around stops / cluster centres.
        pareto_shape: shape of the heavy-tailed per-stop ridership
            weights (smaller = heavier tail = more hub-dominated).
        seed: RNG seed.
        name: label for reports.
    """
    if num_nodes < 1:
        raise DemandError(f"num_nodes must be >= 1, got {num_nodes}")
    if not (0.0 <= growth_fraction <= 1.0):
        raise DemandError("growth_fraction must be in [0, 1]")
    network = transit.road_network
    stops = transit.existing_stops
    if not stops:
        raise DemandError("ridership_demand needs a transit network with stops")
    rng = np.random.default_rng(seed)
    coords = network.coordinates()

    # Heavy-tailed ridership weights per stop; stops on more routes get
    # a boost (transfer hubs see more boardings).
    weights = rng.pareto(pareto_shape, size=len(stops)) + 1.0
    for i, stop in enumerate(stops):
        weights[i] *= 1.0 + 0.5 * (transit.degree(stop) - 1)
    weights /= weights.sum()

    growth_centers = _growth_cluster_centers(
        network, transit, num_growth_clusters, rng
    )

    num_growth = round(num_nodes * growth_fraction)
    xs = np.empty(num_nodes)
    ys = np.empty_like(xs)
    for i in range(num_nodes):
        if i < num_nodes - num_growth:
            center = stops[int(rng.choice(len(stops), p=weights))]
        else:
            center = growth_centers[int(rng.integers(0, len(growth_centers)))]
        cx, cy = coords[center]
        xs[i] = cx + rng.normal(0, sigma_km)
        ys[i] = cy + rng.normal(0, sigma_km)
    nodes = snap(coords, xs, ys, sigma_km)
    return QuerySet(network, nodes, name=name)


def _growth_cluster_centers(
    network: RoadNetwork,
    transit: TransitNetwork,
    count: int,
    rng: np.random.Generator,
) -> List[int]:
    """Centres of uncovered growth neighbourhoods: nodes sampled from
    the decile farthest from any existing stop."""
    if count < 1:
        raise DemandError(f"num_growth_clusters must be >= 1, got {count}")
    dist = engine_for(network).multi_source(transit.existing_stops, phase="demand")
    finite = [(d if math.isfinite(d) else 0.0) for d in dist]
    order = sorted(range(network.num_nodes), key=lambda v: finite[v])
    pool = order[-max(count, network.num_nodes // 10):]
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [int(pool[int(i)]) for i in picks]


def uncovered_query_nodes(
    queries: QuerySet,
    transit: TransitNetwork,
    *,
    walk_limit_km: float = 0.5,
) -> List[int]:
    """The query nodes farther than ``walk_limit_km`` (network distance)
    from every existing stop — the "previously uncovered demand" of the
    Chicago case study.  Multiset semantics: a node appearing twice in
    ``Q`` appears twice in the result.
    """
    dist = engine_for(queries.network).multi_source(
        transit.existing_stops, phase="demand"
    )
    return [v for v in queries.nodes if dist[v] > walk_limit_km]
