"""Reader/writer for the 9th DIMACS Implementation Challenge format.

The paper's road networks come from the DIMACS shortest-path challenge
(http://www.dis.uniroma1.it/challenge9/).  That distribution uses two
files per network:

* a ``.gr`` graph file: comment lines ``c ...``, one problem line
  ``p sp <n> <m>``, and arc lines ``a <u> <v> <cost>`` with 1-based
  node ids and integer costs;
* a ``.co`` coordinate file: comment lines, a problem line
  ``p aux sp co <n>``, and vertex lines ``v <id> <x> <y>`` with integer
  micro-degree coordinates.

This module reads that format into a :class:`RoadNetwork` (converting
coordinates to planar kilometres with an equirectangular projection and
costs with a configurable unit) and writes networks back out, so the
synthetic datasets round-trip through the same files the authors used.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..exceptions import DataFormatError
from .graph import Edge, RoadNetwork

PathLike = Union[str, Path]

#: DIMACS coordinates are degrees times 1e6.
MICRO_DEGREES = 1e6
#: Kilometres per degree of latitude.
KM_PER_DEGREE = 111.32


def read_dimacs(
    gr_path: PathLike,
    co_path: PathLike,
    *,
    cost_unit_km: float = 0.001,
    keep_largest_component: bool = True,
) -> RoadNetwork:
    """Load a DIMACS ``.gr``/``.co`` pair as a :class:`RoadNetwork`.

    Args:
        gr_path: the graph (arc) file.
        co_path: the coordinate file.
        cost_unit_km: kilometres per cost unit in the ``.gr`` file (the
            challenge's distance graphs store metres-scaled integers, so
            the default treats one unit as one metre).
        keep_largest_component: DIMACS extracts are occasionally
            disconnected; keep the largest component so the result
            satisfies Definition 1.

    Raises:
        DataFormatError: on any structural problem in either file.
    """
    raw_coords = _read_coordinates(Path(co_path))
    n_declared, raw_arcs = _read_arcs(Path(gr_path))
    if len(raw_coords) != n_declared:
        raise DataFormatError(
            f"coordinate file has {len(raw_coords)} vertices but graph file "
            f"declares {n_declared}"
        )

    coords = _project(raw_coords)
    edges: List[Edge] = []
    for u, v, cost in raw_arcs:
        if not (1 <= u <= n_declared and 1 <= v <= n_declared):
            raise DataFormatError(f"arc ({u}, {v}) out of range 1..{n_declared}")
        if u == v:
            continue
        edges.append((u - 1, v - 1, cost * cost_unit_km))
    network = RoadNetwork(coords, edges, validate_connected=False)
    if network.is_connected():
        return network
    if not keep_largest_component:
        raise DataFormatError("DIMACS network is disconnected")
    largest, _ = network.subgraph(list(network.nodes()))
    return largest


def write_dimacs(
    network: RoadNetwork,
    gr_path: PathLike,
    co_path: PathLike,
    *,
    cost_unit_km: float = 0.001,
    comment: str = "written by repro.network.dimacs",
) -> None:
    """Write a network as a DIMACS ``.gr``/``.co`` pair.

    Planar kilometre coordinates are inverse-projected to micro-degrees
    around the equator so that :func:`read_dimacs` round-trips them (up
    to integer quantization).
    """
    n = network.num_nodes
    m = 2 * network.num_edges  # DIMACS stores both arc directions
    with open(gr_path, "w") as gr:
        gr.write(f"c {comment}\n")
        gr.write(f"p sp {n} {m}\n")
        for u, v, cost in network.edges():
            units = max(1, round(cost / cost_unit_km))
            gr.write(f"a {u + 1} {v + 1} {units}\n")
            gr.write(f"a {v + 1} {u + 1} {units}\n")
    with open(co_path, "w") as co:
        co.write(f"c {comment}\n")
        co.write(f"p aux sp co {n}\n")
        for node in network.nodes():
            x_km, y_km = network.coordinate(node)
            lon = x_km / KM_PER_DEGREE
            lat = y_km / KM_PER_DEGREE
            co.write(f"v {node + 1} {round(lon * MICRO_DEGREES)} {round(lat * MICRO_DEGREES)}\n")


def _read_arcs(path: Path) -> Tuple[int, List[Tuple[int, int, float]]]:
    n_declared: Optional[int] = None
    arcs: List[Tuple[int, int, float]] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            if fields[0] == "p":
                if len(fields) != 4 or fields[1] != "sp":
                    raise DataFormatError(f"{path}:{line_no}: bad problem line {line!r}")
                n_declared = int(fields[2])
            elif fields[0] == "a":
                if len(fields) != 4:
                    raise DataFormatError(f"{path}:{line_no}: bad arc line {line!r}")
                try:
                    u, v, cost = int(fields[1]), int(fields[2]), float(fields[3])
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{line_no}: {exc}") from exc
                if not 0.0 < cost < math.inf:
                    raise DataFormatError(
                        f"{path}:{line_no}: arc cost must be positive and "
                        f"finite, got {fields[3]!r}"
                    )
                arcs.append((u, v, cost))
            else:
                raise DataFormatError(f"{path}:{line_no}: unknown record {fields[0]!r}")
    if n_declared is None:
        raise DataFormatError(f"{path}: missing 'p sp' problem line")
    return n_declared, arcs


def _read_coordinates(path: Path) -> Dict[int, Tuple[float, float]]:
    coords: Dict[int, Tuple[float, float]] = {}
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            if fields[0] == "p":
                continue
            if fields[0] == "v":
                if len(fields) != 4:
                    raise DataFormatError(f"{path}:{line_no}: bad vertex line {line!r}")
                try:
                    node, x, y = int(fields[1]), float(fields[2]), float(fields[3])
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{line_no}: {exc}") from exc
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise DataFormatError(
                        f"{path}:{line_no}: non-finite coordinate {line!r}"
                    )
                coords[node] = (x, y)
            else:
                raise DataFormatError(f"{path}:{line_no}: unknown record {fields[0]!r}")
    if not coords:
        raise DataFormatError(f"{path}: no vertex records found")
    ids = sorted(coords)
    if ids[0] != 1 or ids[-1] != len(ids):
        raise DataFormatError(f"{path}: vertex ids must be contiguous starting at 1")
    return coords


def _project(raw: Dict[int, Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Equirectangular projection of micro-degree lon/lat to planar km,
    centred on the network's mean latitude."""
    ids = sorted(raw)
    lats = [raw[i][1] / MICRO_DEGREES for i in ids]
    mean_lat = sum(lats) / len(lats)
    cos_lat = math.cos(math.radians(mean_lat))
    coords: List[Tuple[float, float]] = []
    for i in ids:
        lon = raw[i][0] / MICRO_DEGREES
        lat = raw[i][1] / MICRO_DEGREES
        coords.append((lon * KM_PER_DEGREE * cos_lat, lat * KM_PER_DEGREE))
    return coords
