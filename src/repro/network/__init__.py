"""Road network substrate: graphs, searches, generators, and I/O.

This package implements Definition 1 (road network) and Definition 2
(path) of the paper, the Dijkstra search family EBRR is built on (one
API: :class:`SearchEngine`), the DIMACS file format the paper's
datasets use, and synthetic city generators that stand in for the
Chicago/NYC/Orlando extracts.
"""

from .candidates import candidate_mask, insert_edge_midpoints, node_candidates
from .csr import CSRAdjacency
from .engine import CacheInfo, IncrementalNearest, SearchEngine, SearchStats, engine_for
from .dimacs import read_dimacs, write_dimacs
from .generators import grid_city, radial_city, sprawl_city
from .geometry import GridIndex, bounding_box, euclidean, interpolate, midpoint
from .graph import RoadNetwork

__all__ = [
    "RoadNetwork",
    "CSRAdjacency",
    "SearchEngine",
    "SearchStats",
    "CacheInfo",
    "IncrementalNearest",
    "engine_for",
    "grid_city",
    "radial_city",
    "sprawl_city",
    "read_dimacs",
    "write_dimacs",
    "insert_edge_midpoints",
    "node_candidates",
    "candidate_mask",
    "euclidean",
    "midpoint",
    "interpolate",
    "bounding_box",
    "GridIndex",
]
