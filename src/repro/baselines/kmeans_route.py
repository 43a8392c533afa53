"""A k-means clustering baseline (after IntRoute, DASFAA 2021 — the
paper's reference [13]).

The related work's "recent solution combined k-means clustering and the
genetic heuristic algorithm".  Its clustering core is reimplemented
here as a third comparison point:

1. Lloyd's k-means (from scratch, numpy) over the demand coordinates
   with ``K`` clusters;
2. each centroid snaps to the nearest road node that is a legal stop
   location;
3. the stops are ordered with a nearest-neighbour chain (the flavour of
   TSP heuristic such systems use) and stitched with road shortest
   paths.

Like the paper's other baselines it emits (up to) ``K`` stops, ignores
``C``, and — because centroids sit at demand mass centres regardless of
existing coverage — tends to rediscover served areas.  The paper notes
such mathematical-programming formulations also ignore the path cost;
snapping by *Euclidean* nearness reproduces that inaccuracy faithfully.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.config import EBRRConfig
from ..core.ebrr import evaluate_route
from ..core.utility import BRRInstance
from ..exceptions import ConfigurationError
from ..network.engine import engine_for
from ..network.geometry import GridIndex
from ..obs import span, stopwatch
from ..transit.route import BusRoute
from .base import BaselinePlan, RoutePlanner


class KMeansRoute(RoutePlanner):
    """See module docstring.

    Args:
        max_iterations: Lloyd iteration cap.
        tolerance: centroid-movement convergence threshold (km).
        seed: RNG seed for the k-means++ style initialization.
    """

    name = "k-means"

    def __init__(
        self,
        *,
        max_iterations: int = 50,
        tolerance: float = 1e-3,
        seed: int = 0,
    ) -> None:
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._seed = seed

    def plan(self, instance: BRRInstance, config: EBRRConfig) -> BaselinePlan:
        timings: Dict[str, float] = {}
        with stopwatch(timings, "query"), span("baseline.kmeans"):
            coords = instance.network.coordinates()
            points = np.asarray(
                [coords[v] for v in instance.queries.nodes], dtype=float
            )
            k = min(config.max_stops, len(np.unique(points, axis=0)))
            if k < 2:
                raise ConfigurationError(
                    "k-means needs at least two distinct demand points"
                )
            centroids = _lloyd(
                points, k, self._max_iterations, self._tolerance, self._seed
            )
            stops = self._snap(instance, centroids)
            if len(stops) < 2:
                raise ConfigurationError("k-means produced fewer than two stops")
            ordered = _nearest_neighbor_order(
                [coords[s] for s in stops], stops
            )
            path = _stitch(instance, ordered)
            route = BusRoute("kmeans", ordered, path)
        timings["total"] = timings["query"]
        metrics = evaluate_route(instance, route)
        return BaselinePlan(route=route, metrics=metrics, timings=timings)

    def _snap(
        self, instance: BRRInstance, centroids: np.ndarray
    ) -> List[int]:
        """Nearest *eligible* node per centroid (Euclidean — the
        baseline's characteristic inaccuracy), deduplicated."""
        eligible = [
            v
            for v in instance.network.nodes()
            if instance.is_candidate[v] or instance.is_existing[v]
        ]
        index = GridIndex(
            [instance.network.coordinate(v) for v in eligible], cell_size=0.5
        )
        stops: List[int] = []
        seen = set()
        for i in index.nearest_many(centroids[:, 0], centroids[:, 1]).tolist():
            node = eligible[i]
            if node not in seen:
                seen.add(node)
                stops.append(node)
        return stops


def _lloyd(
    points: np.ndarray,
    k: int,
    max_iterations: int,
    tolerance: float,
    seed: int,
) -> np.ndarray:
    """Plain Lloyd's algorithm with greedy farthest-point init."""
    rng = np.random.default_rng(seed)
    centroids = _init_centroids(points, k, rng)
    for _ in range(max_iterations):
        # assignment
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        moved = 0.0
        for j in range(k):
            members = points[labels == j]
            if len(members) == 0:
                # re-seed an empty cluster at the farthest point
                far = d2.min(axis=1).argmax()
                new_c = points[far]
            else:
                new_c = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new_c - centroids[j])))
            centroids[j] = new_c
        if moved <= tolerance:
            break
    return centroids


def _init_centroids(points: np.ndarray, k: int, rng) -> np.ndarray:
    """Farthest-point (k-means++-flavoured, deterministic-greedy) init."""
    first = int(rng.integers(0, len(points)))
    chosen = [points[first]]
    d2 = ((points - chosen[0]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(d2.argmax())
        chosen.append(points[nxt])
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return np.asarray(chosen, dtype=float)


def _nearest_neighbor_order(
    positions: Sequence[Tuple[float, float]], stops: Sequence[int]
) -> List[int]:
    """Greedy nearest-neighbour chaining from the westmost stop."""
    remaining = list(range(len(stops)))
    current = min(remaining, key=lambda i: positions[i][0])
    order = [current]
    remaining.remove(current)
    while remaining:
        cx, cy = positions[current]
        current = min(
            remaining,
            key=lambda i: (positions[i][0] - cx) ** 2 + (positions[i][1] - cy) ** 2,
        )
        order.append(current)
        remaining.remove(current)
    return [stops[i] for i in order]


def _stitch(instance: BRRInstance, stops: Sequence[int]) -> List[int]:
    engine = engine_for(instance.network)
    path: List[int] = [stops[0]]
    for a, b in zip(stops, stops[1:]):
        leg, _ = engine.path(a, b, phase="baseline")
        path.extend(leg[1:])
    return path
