"""Importer for standard GTFS feeds.

The paper's transit data comes from agencies (CTA, MTA, Lynx) that
publish **GTFS** — the de-facto standard: ``stops.txt`` (lat/lon),
``trips.txt`` (route -> trips), ``stop_times.txt`` (per-trip ordered
stop sequences).  This module turns such a feed into a
:class:`~repro.transit.network.TransitNetwork` over an existing road
network:

1. project stop lat/lon to the network's planar kilometre frame (the
   same equirectangular convention as :mod:`repro.network.dimacs`);
2. snap each stop to its nearest road node (reporting snap distances so
   bad georeferencing is visible);
3. per route, take the trip with the most stops as the representative
   pattern (the common simplification for planning studies);
4. connect consecutive stops with road shortest paths.

Only the three files above are required; all other GTFS files are
ignored.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import DataFormatError, TransitError
from ..network.dimacs import KM_PER_DEGREE
from ..network.engine import engine_for
from ..network.geometry import GridIndex
from ..network.graph import RoadNetwork
from .network import TransitNetwork
from .route import BusRoute

PathLike = Union[str, Path]


@dataclass
class GtfsImportReport:
    """What the import did.

    Attributes:
        num_stops: distinct GTFS stops read.
        num_routes: routes imported.
        max_snap_km: worst stop-to-node snap distance (large values
            mean the feed and the network are not georeferenced alike).
        mean_snap_km: average snap distance.
        skipped_routes: route ids dropped (fewer than two usable stops).
    """

    num_stops: int = 0
    num_routes: int = 0
    max_snap_km: float = 0.0
    mean_snap_km: float = 0.0
    skipped_routes: List[str] = field(default_factory=list)


def load_gtfs_feed(
    network: RoadNetwork,
    directory: PathLike,
    *,
    cos_lat: Optional[float] = None,
) -> Tuple[TransitNetwork, GtfsImportReport]:
    """Import a GTFS feed (see module docstring).

    Args:
        network: the road network to snap onto (planar km frame).
        directory: folder containing ``stops.txt``, ``trips.txt``,
            ``stop_times.txt``.
        cos_lat: the longitude-compression factor of the network's
            projection; defaults to ``cos(mean stop latitude)``, which
            matches how :func:`repro.network.read_dimacs` projected the
            network when both come from the same region.

    Returns:
        ``(transit, report)``.

    Raises:
        DataFormatError: on missing files/columns or malformed rows.
        TransitError: if no route survives the import.
    """
    directory = Path(directory)
    stops = _read_stops(directory / "stops.txt")
    trips = _read_trips(directory / "trips.txt")
    sequences = _read_stop_times(directory / "stop_times.txt")

    if cos_lat is None:
        mean_lat = sum(lat for lat, _ in stops.values()) / len(stops)
        cos_lat = math.cos(math.radians(mean_lat))

    # Project every stop, then snap them all in one query.
    xs = [lon * KM_PER_DEGREE * cos_lat for _, lon in stops.values()]
    ys = [lat * KM_PER_DEGREE for lat, _ in stops.values()]
    nodes = GridIndex(network.coordinates(), cell_size=0.5).nearest_many(xs, ys)
    node_of: Dict[str, int] = {}
    snap_distances: List[float] = []
    for stop_id, x, y, node in zip(stops, xs, ys, nodes.tolist()):
        node_of[stop_id] = node
        nx, ny = network.coordinate(node)
        snap_distances.append(math.hypot(nx - x, ny - y))

    report = GtfsImportReport(
        num_stops=len(stops),
        max_snap_km=max(snap_distances) if snap_distances else 0.0,
        mean_snap_km=(
            sum(snap_distances) / len(snap_distances) if snap_distances else 0.0
        ),
    )

    routes: List[BusRoute] = []
    for route_id, trip_ids in sorted(trips.items()):
        pattern = _representative_pattern(route_id, trip_ids, sequences)
        if pattern is None:
            report.skipped_routes.append(route_id)
            continue
        stop_nodes = _dedupe([node_of[s] for s in pattern if s in node_of])
        if len(stop_nodes) < 2:
            report.skipped_routes.append(route_id)
            continue
        path = _stitch(network, stop_nodes)
        routes.append(BusRoute(route_id, stop_nodes, path))
    if not routes:
        raise TransitError("GTFS import produced no usable routes")
    report.num_routes = len(routes)
    return TransitNetwork(network, routes), report


# ----------------------------------------------------------------------
# File readers
# ----------------------------------------------------------------------


def _read_csv(path: Path, required: Sequence[str]) -> List[Dict[str, str]]:
    if not path.exists():
        raise DataFormatError(f"missing GTFS file {path}")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not set(required).issubset(
            reader.fieldnames
        ):
            raise DataFormatError(
                f"{path}: header must contain {sorted(required)}"
            )
        return list(reader)


def _read_stops(path: Path) -> Dict[str, Tuple[float, float]]:
    rows = _read_csv(path, ["stop_id", "stop_lat", "stop_lon"])
    stops: Dict[str, Tuple[float, float]] = {}
    for row_no, row in enumerate(rows, start=2):
        try:
            lat, lon = float(row["stop_lat"]), float(row["stop_lon"])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{row_no}: {exc}") from exc
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise DataFormatError(f"{path}:{row_no}: stop coordinates must be finite")
        stops[row["stop_id"]] = (lat, lon)
    if not stops:
        raise DataFormatError(f"{path}: no stops")
    return stops


def _read_trips(path: Path) -> Dict[str, List[str]]:
    rows = _read_csv(path, ["route_id", "trip_id"])
    trips: Dict[str, List[str]] = {}
    for row in rows:
        trips.setdefault(row["route_id"], []).append(row["trip_id"])
    if not trips:
        raise DataFormatError(f"{path}: no trips")
    return trips


def _read_stop_times(path: Path) -> Dict[str, List[Tuple[int, str]]]:
    rows = _read_csv(path, ["trip_id", "stop_id", "stop_sequence"])
    sequences: Dict[str, List[Tuple[int, str]]] = {}
    for row_no, row in enumerate(rows, start=2):
        try:
            order = int(row["stop_sequence"])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{row_no}: {exc}") from exc
        sequences.setdefault(row["trip_id"], []).append((order, row["stop_id"]))
    return sequences


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def _representative_pattern(
    route_id: str,
    trip_ids: Sequence[str],
    sequences: Dict[str, List[Tuple[int, str]]],
) -> Optional[List[str]]:
    """The stop-id sequence of the route's longest trip."""
    best: Optional[List[str]] = None
    for trip_id in trip_ids:
        entries = sequences.get(trip_id)
        if not entries:
            continue
        ordered = [stop for _, stop in sorted(entries)]
        if best is None or len(ordered) > len(best):
            best = ordered
    return best


def _dedupe(nodes: Sequence[int]) -> List[int]:
    seen = set()
    result = []
    for node in nodes:
        if node not in seen:
            seen.add(node)
            result.append(node)
    return result


def _stitch(network: RoadNetwork, stops: Sequence[int]) -> List[int]:
    engine = engine_for(network)
    path: List[int] = [stops[0]]
    for a, b in zip(stops, stops[1:]):
        leg, _ = engine.path(a, b, phase="transit")
        path.extend(leg[1:])
    return path
