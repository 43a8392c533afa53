"""Synthetic city datasets standing in for Table II.

The paper evaluates on Chicago, New York City, and Orlando (road
networks from DIMACS, transit from the local authorities, demand from
historical queries / Uber Movement).  Each builder here produces the
same *kind* of city at a configurable linear ``scale``:

* node, stop, and query counts shrink with ``scale**2`` (area scaling);
* topology matches the city's style (see
  :mod:`repro.network.generators`);
* demand mixes established hotspots near the existing network with
  under-served growth areas, the structure the paper's evaluation
  depends on.

``scale=1.0`` reproduces the paper's sizes (|V| = 58k-135k) — feasible
but slow in pure Python; the benchmarks default to ``scale≈0.15``.
Real data drops in through :func:`repro.network.read_dimacs` and
:func:`repro.transit.load_transit` without touching anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.utility import BRRInstance
from ..demand.generators import hotspot_demand
from ..demand.query import QuerySet
from ..exceptions import ConfigurationError
from ..network.generators import grid_city, radial_city, sprawl_city
from ..network.geometry import Point, bounding_box
from ..network.graph import RoadNetwork
from ..obs import span
from ..transit.builder import build_transit_network
from ..transit.network import TransitNetwork

#: Paper sizes (Table II) the builders scale down from.
PAPER_SIZES: Dict[str, Dict[str, int]] = {
    "Chicago": {"V": 58_337, "E": 178_102, "S_new": 89_051, "S_existing": 10_517, "Q": 1_076_324},
    "NYC": {"V": 134_551, "E": 397_956, "S_new": 198_978, "S_existing": 9_225, "Q": 793_496},
    "Orlando": {"V": 95_678, "E": 238_674, "S_new": 119_337, "S_existing": 3_949, "Q": 136_813},
}


@dataclass
class CityDataset:
    """A complete city: network, transit, demand, and region metadata.

    Attributes:
        name: ``Chicago`` / ``NYC`` / ``Orlando``.
        network: the road network.
        transit: the existing transit network.
        queries: the full demand multiset ``Q``.
        regions: named region centres (NYC boroughs) for the
            effect-of-Q partition; ``None`` means "partition by
            vertical bands" (Chicago's Dataset1-4).
        scale: the linear scale it was generated at.
    """

    name: str
    network: RoadNetwork
    transit: TransitNetwork
    queries: QuerySet
    regions: Optional[List[Tuple[str, Point]]] = None
    scale: float = 1.0

    def instance(self, alpha: float, *, queries: Optional[QuerySet] = None) -> BRRInstance:
        """A BRR instance over this city (optionally a demand subset)."""
        return BRRInstance(
            self.transit, queries if queries is not None else self.queries, alpha=alpha
        )

    def statistics(self) -> Dict[str, int]:
        """Table II row: |V|, |E|, |S_new|, |S_existing|, |Q|."""
        existing = len(self.transit.existing_stops)
        return {
            "V": self.network.num_nodes,
            "E": self.network.num_edges,
            "S_new": self.network.num_nodes - existing,
            "S_existing": existing,
            "Q": len(self.queries),
        }


def _scaled(paper_value: int, scale: float, *, minimum: int = 1) -> int:
    return max(minimum, round(paper_value * scale * scale))


def chicago(scale: float = 0.15, *, seed: int = 7) -> CityDataset:
    """Chicago: dense grid bounded by a lakefront on the east."""
    _check_scale(scale)
    target_nodes = _scaled(PAPER_SIZES["Chicago"]["V"], scale, minimum=400)
    # The coastline cut removes ~20% of lattice nodes.
    side = max(20, round(math.sqrt(target_nodes / 0.8)))
    network, transit, queries = _build(
        "Chicago",
        scale,
        seed,
        lambda: grid_city(rows=side, cols=side, block_km=0.25, coastline=0.8, seed=seed),
        num_routes=max(6, round(40 * scale / 0.15)),
        stop_spacing_km=0.4,
        num_queries=_scaled(PAPER_SIZES["Chicago"]["Q"], scale, minimum=2000),
        num_hotspots=10,
        sigma_km=0.9,
        uncovered_fraction=0.5,
    )
    return CityDataset("Chicago", network, transit, queries, regions=None, scale=scale)


def nyc(scale: float = 0.15, *, seed: int = 11) -> CityDataset:
    """NYC: four dense boroughs joined by bridges."""
    _check_scale(scale)
    target_nodes = _scaled(PAPER_SIZES["NYC"]["V"], scale, minimum=600)
    per_borough = max(150, target_nodes // 4)
    network, transit, queries = _build(
        "NYC",
        scale,
        seed,
        lambda: radial_city(
            num_boroughs=4,
            nodes_per_borough=per_borough,
            borough_radius_km=3.5,
            spacing_km=7.5,
            seed=seed,
        ),
        num_routes=max(6, round(36 * scale / 0.15)),
        stop_spacing_km=0.4,
        num_queries=_scaled(PAPER_SIZES["NYC"]["Q"], scale, minimum=2000),
        num_hotspots=12,
        sigma_km=1.0,
        uncovered_fraction=0.4,
    )
    regions = _nyc_regions(network)
    return CityDataset("NYC", network, transit, queries, regions=regions, scale=scale)


def _nyc_regions(network: RoadNetwork) -> List[Tuple[str, Point]]:
    """Name the four borough clusters by their quadrant centres."""
    import math as _math

    min_x, min_y, max_x, max_y = bounding_box(network.coordinates())
    cx, cy = (min_x + max_x) / 2, (min_y + max_y) / 2
    r = 7.5
    names = ["Brooklyn", "Manhattan", "Queens", "Bronx"]
    return [
        (
            names[b],
            (
                cx + r * _math.cos(2 * _math.pi * b / 4) * 0.9,
                cy + r * _math.sin(2 * _math.pi * b / 4) * 0.9,
            ),
        )
        for b in range(4)
    ]


def orlando(scale: float = 0.15, *, seed: int = 13) -> CityDataset:
    """Orlando: low-density sprawl around arterial corridors."""
    _check_scale(scale)
    target_nodes = _scaled(PAPER_SIZES["Orlando"]["V"], scale, minimum=400)
    network, transit, queries = _build(
        "Orlando",
        scale,
        seed,
        lambda: sprawl_city(
            num_nodes=target_nodes,
            extent_km=16.0,
            arterial_count=6,
            seed=seed,
        ),
        num_routes=max(4, round(18 * scale / 0.15)),
        stop_spacing_km=0.45,
        num_queries=_scaled(PAPER_SIZES["Orlando"]["Q"], scale, minimum=1000),
        num_hotspots=8,
        sigma_km=1.1,
        uncovered_fraction=0.6,  # Orlando's case study is growth-driven
    )
    return CityDataset("Orlando", network, transit, queries, regions=None, scale=scale)


def _build(
    name: str,
    scale: float,
    seed: int,
    make_network: Callable[[], RoadNetwork],
    *,
    num_routes: int,
    stop_spacing_km: float,
    num_queries: int,
    num_hotspots: int,
    sigma_km: float,
    uncovered_fraction: float,
) -> Tuple[RoadNetwork, TransitNetwork, QuerySet]:
    """Network, transit and demand of one city, each under its own
    span inside a ``datasets.load`` span."""
    with span("datasets.load", city=name, scale=scale):
        with span("datasets.network"):
            network = make_network()
        with span("datasets.transit"):
            transit = build_transit_network(
                network,
                num_routes=num_routes,
                stop_spacing_km=stop_spacing_km,
                seed=seed + 1,
            )
        with span("datasets.demand"):
            queries = hotspot_demand(
                network,
                num_queries,
                num_hotspots=num_hotspots,
                sigma_km=sigma_km,
                transit=transit,
                uncovered_fraction=uncovered_fraction,
                seed=seed + 2,
                name=f"{name}-Q",
            )
    return network, transit, queries


def _check_scale(scale: float) -> None:
    if not (0.0 < scale <= 1.0):
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
