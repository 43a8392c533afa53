"""The price function (Definitions 11 and 12) and its lower bound
(Algorithm 4).

The price of a stop ``v`` w.r.t. the selected set ``B`` is the minimum
number of intermediate stops needed to link ``v`` to its nearest stop
in ``B`` under the adjacent-cost constraint ``C``, plus one (for ``v``
itself).  Because candidate stops are dense along roads (Section III:
edge midpoints "are dense enough to cover all roads"), the minimum
intermediate count along the shortest path is ``ceil(dist / C) − 1``,
giving::

    p(v, B) = max(1, ceil(dist(v, nn_B(v)) / C))

which matches the paper's Example 6 arithmetic exactly
(``dist = 8, C = 4 → price 2``; ``dist ≤ C → price 1``).

Algorithm 4 replaces the network distance with the Euclidean distance
to get a cheap lower bound ``lbp(v) = max(1, min_{v'∈B} distE(v,v')/C)``
and amortizes the min over iterations with a per-stop ``lbIndex`` that
remembers how much of ``B`` has already been scanned.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..network.geometry import Point

_EPSILON = 1e-9


def price_from_distance(distance: float, max_adjacent_cost: float) -> int:
    """``p`` for a stop at network distance ``distance`` from its
    nearest selected stop: ``max(1, ceil(distance / C))``.

    A tiny tolerance keeps ``distance == k·C`` from spuriously rounding
    up due to floating point noise.
    """
    if max_adjacent_cost <= 0:
        raise ConfigurationError(f"C must be positive, got {max_adjacent_cost}")
    if distance <= max_adjacent_cost + _EPSILON:
        return 1
    if not math.isfinite(distance):
        raise ConfigurationError("price undefined for unreachable stop (infinite dist)")
    return max(1, math.ceil(distance / max_adjacent_cost - _EPSILON))


def prices_from_distances(
    distances: np.ndarray, max_adjacent_cost: float
) -> np.ndarray:
    """:func:`price_from_distance` over an array of distances, as int64
    — the same float expression per element, so the same integers —
    except that an infinite distance (a stop that cannot reach ``B``)
    prices ``0`` instead of raising, for the caller to report."""
    if max_adjacent_cost <= 0:
        raise ConfigurationError(f"C must be positive, got {max_adjacent_cost}")
    distances = np.asarray(distances, dtype=np.float64)
    reachable = np.isfinite(distances)
    steps = np.ceil(np.where(reachable, distances, 0.0) / max_adjacent_cost - _EPSILON)
    prices = np.where(
        distances <= max_adjacent_cost + _EPSILON, 1.0, np.maximum(steps, 1.0)
    )
    return np.where(reachable, prices, 0.0).astype(np.int64)


def virtual_edge_price(
    distance: float, max_adjacent_cost: float
) -> int:
    """Price of the virtual edge between two stops at network distance
    ``distance`` (Definition 12) — same arithmetic as
    :func:`price_from_distance`."""
    return price_from_distance(distance, max_adjacent_cost)


def intermediate_stop_count(distance: float, max_adjacent_cost: float) -> int:
    """Minimum number of *intermediate* stops on a leg of network cost
    ``distance``: the price minus one (Definition 11)."""
    return price_from_distance(distance, max_adjacent_cost) - 1


class LowerBoundPrice:
    """Algorithm 4: amortized Euclidean lower-bound prices.

    Keeps two per-node arrays: ``lbp[v]``, the running minimum of
    ``distE(v, v') / C`` over the selected stops ``v' ∈ B`` folded in
    so far, and ``lbIndex[v]``, the index of the first selected stop not
    yet folded into it.  Each :meth:`values` call only scans the *new*
    members of ``B``, so the total work per stop is O(|B|) over the
    whole run, amortized O(1) per iteration (Theorem 5's analysis).

    The fold runs over whole arrays of stops, but each distance is
    ``math.hypot`` of the coordinate differences, as
    :func:`~repro.network.geometry.euclidean` computes it: ``np.hypot``
    differs from it in the last bit on some inputs, and a one-ulp change
    in a bound can reorder two equal ``RQueue`` priorities.
    """

    def __init__(
        self, coordinates: Sequence[Point], max_adjacent_cost: float
    ) -> None:
        if max_adjacent_cost <= 0:
            raise ConfigurationError(f"C must be positive, got {max_adjacent_cost}")
        coords = np.asarray(coordinates, dtype=np.float64).reshape(-1, 2)
        self._xs = coords[:, 0]
        self._ys = coords[:, 1]
        self._c = max_adjacent_cost
        self._selected: List[int] = []
        self._lbp = np.full(len(coords), math.inf)
        self._lb_index = np.zeros(len(coords), dtype=np.int64)

    @property
    def selected(self) -> List[int]:
        """The selected stops ``B`` in insertion order (a copy)."""
        return list(self._selected)

    def add_selected(self, stop: int) -> None:
        """Record a newly selected stop (``B ← B ∪ {v(i)}``)."""
        self._selected.append(stop)

    def values(self, stops: Sequence[int]) -> np.ndarray:
        """``max(1, lbp(v))`` for each ``v`` in ``stops`` — the
        lower-bound prices used as the denominators of the ``RQueue``
        upper-bound priorities.

        Raises:
            ConfigurationError: if no stop has been selected yet.
        """
        if not self._selected:
            raise ConfigurationError("lower-bound price needs a non-empty B")
        stops = np.asarray(stops, dtype=np.int64)
        best = self._lbp[stops]
        start = self._lb_index[stops]
        xs, ys = self._xs[stops], self._ys[stops]
        size = len(self._selected)
        for i in range(int(start.min(initial=size)), size):
            pending = np.flatnonzero(start <= i)
            member = self._selected[i]
            dx = (xs[pending] - self._xs[member]).tolist()
            dy = (ys[pending] - self._ys[member]).tolist()
            candidate = np.fromiter(map(math.hypot, dx, dy), np.float64, len(dx))
            best[pending] = np.minimum(best[pending], candidate / self._c)
        self._lbp[stops] = best
        self._lb_index[stops] = size
        return np.maximum(best, 1.0)

    def value(self, stop: int) -> float:
        """``max(1, lbp(stop))`` — :meth:`values` for one stop."""
        return float(self.values([stop])[0])

    def scanned_fraction(self, stop: int) -> float:
        """Fraction of ``B`` already folded into ``stop``'s bound —
        instrumentation for the amortization tests."""
        if not self._selected:
            return 1.0
        return int(self._lb_index[stop]) / len(self._selected)
