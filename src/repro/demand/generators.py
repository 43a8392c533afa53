"""Demand (query) generators.

The paper's demand comes from historical transit-routing queries and
Uber Movement pickups/dropoffs.  Its key spatial property — the one the
whole evaluation hinges on — is that *some* demand sits near the
existing transit network (already covered) while a growing share sits
in under-served areas (the Lake Nona / airport-corridor pattern of the
case studies).  The generators below reproduce that structure:

* :func:`uniform_demand` — a null model, queries everywhere;
* :func:`hotspot_demand` — a Gaussian-mixture model whose hotspot
  centres are split between "covered" locations (near existing stops)
  and "uncovered growth" locations (far from every stop);
* :func:`commute_demand` — OD pairs from residential clusters to a
  downtown core, for the journey-planner experiments that need real
  origin/destination pairing rather than just the multiset.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import DemandError
from ..network.engine import engine_for
from ..network.geometry import GridIndex, Point, bounding_box
from ..network.graph import RoadNetwork
from ..obs import span
from ..transit.network import TransitNetwork
from .query import QuerySet, TransitQuery


def uniform_demand(
    network: RoadNetwork, num_nodes: int, *, seed: int = 0, name: str = "uniform"
) -> QuerySet:
    """``num_nodes`` query nodes drawn uniformly from the network."""
    if num_nodes < 1:
        raise DemandError(f"num_nodes must be >= 1, got {num_nodes}")
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, network.num_nodes, size=num_nodes)
    return QuerySet(network, (int(v) for v in nodes), name=name)


def hotspot_demand(
    network: RoadNetwork,
    num_nodes: int,
    *,
    num_hotspots: int = 8,
    sigma_km: float = 0.8,
    transit: Optional[TransitNetwork] = None,
    uncovered_fraction: float = 0.5,
    background_fraction: float = 0.1,
    seed: int = 0,
    name: str = "hotspot",
) -> QuerySet:
    """Gaussian-mixture demand with covered and uncovered hotspots.

    Args:
        network: the road network.
        num_nodes: size of the multiset ``Q``.
        num_hotspots: number of mixture components.
        sigma_km: spatial spread of each hotspot.
        transit: if given, hotspot centres are split into two kinds —
            ``uncovered_fraction`` of them are placed at the nodes
            *farthest* from any existing stop (new growth areas whose
            demand the current network misses), the rest at nodes *near*
            stops (established demand).  Without ``transit`` all centres
            are uniform.
        uncovered_fraction: share of hotspots in uncovered areas.
        background_fraction: share of ``Q`` scattered uniformly.
        seed: RNG seed.
        name: label for experiment reports.
    """
    if num_nodes < 1:
        raise DemandError(f"num_nodes must be >= 1, got {num_nodes}")
    if not (0.0 <= uncovered_fraction <= 1.0):
        raise DemandError("uncovered_fraction must be in [0, 1]")
    if not (0.0 <= background_fraction < 1.0):
        raise DemandError("background_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    centers = _pick_hotspot_centers(
        network, num_hotspots, transit, uncovered_fraction, rng
    )
    coords = network.coordinates()

    num_background = int(num_nodes * background_fraction)
    nodes = [int(rng.integers(0, network.num_nodes)) for _ in range(num_background)]
    xs = np.empty(num_nodes - num_background)
    ys = np.empty_like(xs)
    for i in range(xs.size):
        cx, cy = coords[centers[int(rng.integers(0, len(centers)))]]
        xs[i] = cx + rng.normal(0.0, sigma_km)
        ys[i] = cy + rng.normal(0.0, sigma_km)
    nodes += snap(coords, xs, ys, sigma_km)
    return QuerySet(network, nodes, name=name)


def commute_demand(
    network: RoadNetwork,
    num_queries: int,
    *,
    num_residential: int = 6,
    sigma_km: float = 0.7,
    seed: int = 0,
) -> List[TransitQuery]:
    """Origin/destination commute queries: origins scattered around
    residential cluster centres, destinations around the network's
    geographic core.  Returns full OD pairs (Definition 4) for use with
    the journey planner; build the multiset with
    :meth:`QuerySet.from_queries`.
    """
    if num_queries < 1:
        raise DemandError(f"num_queries must be >= 1, got {num_queries}")
    rng = np.random.default_rng(seed)
    coords = network.coordinates()
    min_x, min_y, max_x, max_y = bounding_box(coords)
    core = ((min_x + max_x) / 2.0, (min_y + max_y) / 2.0)
    residential = [
        coords[int(rng.integers(0, network.num_nodes))] for _ in range(num_residential)
    ]
    # Origins in the first half, destinations in the second.
    xs = np.empty(2 * num_queries)
    ys = np.empty_like(xs)
    for i in range(num_queries):
        rx, ry = residential[int(rng.integers(0, num_residential))]
        xs[i] = rx + rng.normal(0, sigma_km)
        ys[i] = ry + rng.normal(0, sigma_km)
        xs[num_queries + i] = core[0] + rng.normal(0, sigma_km)
        ys[num_queries + i] = core[1] + rng.normal(0, sigma_km)
    nodes = snap(coords, xs, ys, sigma_km)
    queries = [
        TransitQuery(origin, destination)
        for origin, destination in zip(nodes[:num_queries], nodes[num_queries:])
        if origin != destination
    ]
    if not queries:
        raise DemandError("commute_demand produced no distinct OD pairs")
    return queries


def snap(
    coords: Sequence[Point], xs: np.ndarray, ys: np.ndarray, sigma_km: float
) -> List[int]:
    """The node nearest to each location sampled with spread
    ``sigma_km``, in one batched grid query under a ``demand.snap``
    span."""
    with span("demand.snap", samples=int(xs.size)) as live:
        index = GridIndex(coords, cell_size=max(sigma_km, 0.25))
        # One int object per node, shared by all samples snapped to it:
        # a million query nodes then hold |V| ints, not a million.
        node_ids = list(range(len(coords)))
        nodes = [node_ids[i] for i in index.nearest_many(xs, ys).tolist()]
        live.set(widened=index.widened)
    return nodes


def _pick_hotspot_centers(
    network: RoadNetwork,
    num_hotspots: int,
    transit: Optional[TransitNetwork],
    uncovered_fraction: float,
    rng: np.random.Generator,
) -> List[int]:
    """Hotspot centre nodes, split covered/uncovered when transit data
    is available."""
    if num_hotspots < 1:
        raise DemandError(f"num_hotspots must be >= 1, got {num_hotspots}")
    if transit is None or not transit.existing_stops:
        return [int(v) for v in rng.integers(0, network.num_nodes, size=num_hotspots)]

    dist_to_stop = engine_for(network).multi_source(
        transit.existing_stops, phase="demand"
    )
    finite = [(d if math.isfinite(d) else 0.0) for d in dist_to_stop]
    order = sorted(range(network.num_nodes), key=lambda v: finite[v])

    num_uncovered = round(num_hotspots * uncovered_fraction)
    num_covered = num_hotspots - num_uncovered
    centers: List[int] = []
    # Uncovered growth areas: sample from the farthest decile.
    far_pool = order[-max(1, network.num_nodes // 10):]
    for _ in range(num_uncovered):
        centers.append(int(far_pool[int(rng.integers(0, len(far_pool)))]))
    # Established demand: sample from the nearest quartile.
    near_pool = order[: max(1, network.num_nodes // 4)]
    for _ in range(num_covered):
        centers.append(int(near_pool[int(rng.integers(0, len(near_pool)))]))
    return centers
