"""Planar geometry helpers shared by the network package.

Coordinates throughout the repository are planar ``(x, y)`` pairs in
kilometres.  The paper's datasets use projected road networks where edge
costs are distances in kilometres; keeping a single unit everywhere lets
the Euclidean metric act as a valid lower bound of the network metric,
which Algorithm 4 (the lower-bound price) relies on.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

Point = Tuple[float, float]


def euclidean(a: Point, b: Point) -> float:
    """Straight-line distance between two points, in the same unit as
    the coordinates (kilometres by convention)."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def midpoint(a: Point, b: Point) -> Point:
    """The midpoint of segment ``ab``."""
    return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)


def bounding_box(points: Iterable[Point]) -> Tuple[float, float, float, float]:
    """Return ``(min_x, min_y, max_x, max_y)`` over ``points``.

    Raises:
        ValueError: if ``points`` is empty.
    """
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("bounding_box() requires at least one point")
    min_x = max_x = first[0]
    min_y = max_y = first[1]
    for x, y in iterator:
        min_x = min(min_x, x)
        max_x = max(max_x, x)
        min_y = min(min_y, y)
        max_y = max(max_y, y)
    return (min_x, min_y, max_x, max_y)


def interpolate(a: Point, b: Point, fraction: float) -> Point:
    """The point a ``fraction`` of the way from ``a`` to ``b``.

    ``fraction`` is clamped to ``[0, 1]`` so callers can pass ratios
    computed from path costs without worrying about rounding overshoot.
    """
    t = min(1.0, max(0.0, fraction))
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def polyline_length(points: Sequence[Point]) -> float:
    """Total Euclidean length of the polyline through ``points``."""
    return sum(euclidean(points[i], points[i + 1]) for i in range(len(points) - 1))


def points_within_radius(
    points: Sequence[Point], center: Point, radius: float
) -> List[int]:
    """Indices of ``points`` whose Euclidean distance to ``center`` is at
    most ``radius``.  A simple linear scan; used only on small sets.
    """
    cx, cy = center
    r2 = radius * radius
    result = []
    for i, (x, y) in enumerate(points):
        dx = x - cx
        dy = y - cy
        if dx * dx + dy * dy <= r2:
            result.append(i)
    return result


class GridIndex:
    """A uniform spatial hash over planar points.

    Answers nearest-point queries in batches (:meth:`nearest_many`) and
    radius queries (:meth:`within`) in roughly O(1) per probe for
    uniformly scattered data.  Used by the demand generators, the GTFS
    importer and the k-means baseline to snap locations to network
    nodes, and by ETA-Pre's trajectory matching; the core EBRR algorithm
    itself never needs it (it always measures network, not Euclidean,
    costs).

    Attributes:
        widened: probes so far whose search went past the first
            :attr:`FIRST_RINGS` rings (demand snapping reports it).
    """

    #: Rings of cells (Chebyshev cell distance) every probe's first
    #: pass covers: the 5x5 cells around it.
    FIRST_RINGS = 2
    #: Most probes in one distance-matrix block.
    BLOCK_ROWS = 256
    #: Most entries in one distance-matrix block, so dense cells stay
    #: within a few MB.
    BLOCK_ENTRIES = 1 << 18

    def __init__(self, points: Sequence[Point], cell_size: float = 0.5) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._points = list(points)
        self._cell = cell_size
        self.widened = 0
        xy = np.array(self._points, dtype=np.float64).reshape(-1, 2)
        if not np.isfinite(xy).all():
            raise ValueError("GridIndex points must have finite coordinates")
        self._x = np.ascontiguousarray(xy[:, 0])
        self._y = np.ascontiguousarray(xy[:, 1])
        # Bucket of each occupied cell: its point indices in index order.
        self._buckets: Dict[Tuple[int, int], np.ndarray] = {}
        self._lo = self._hi = (0, 0)
        if not self._points:
            return
        kx, ky = self._keys(self._x, self._y)
        order, cuts = _group_by_cell(kx, ky)
        heads = order[np.concatenate(([0], cuts))]
        keys = zip(kx[heads].tolist(), ky[heads].tolist())
        self._buckets = dict(zip(keys, np.split(order, cuts)))
        self._lo = (int(kx.min()), int(ky.min()))
        self._hi = (int(kx.max()), int(ky.max()))

    def _keys(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.floor(xs / self._cell).astype(np.int64),
            np.floor(ys / self._cell).astype(np.int64),
        )

    def __len__(self) -> int:
        return len(self._points)

    def nearest(self, point: Point) -> int:
        """Index of the point nearest to ``point``: the one-probe case
        of :meth:`nearest_many`.

        Raises:
            ValueError: if the index is empty.
        """
        return int(self.nearest_many([point[0]], [point[1]])[0])

    def nearest_many(self, xs: npt.ArrayLike, ys: npt.ArrayLike) -> np.ndarray:
        """Index of the point nearest to each probe ``(xs[i], ys[i])``.

        Probes are grouped by cell.  Each group takes the first
        ``argmin`` of squared distance over the points of the rings of
        cells around it (rings 0 to :attr:`FIRST_RINGS`), listed in
        visiting order: ring by ring; within a ring, the bottom and top
        rows interleaved left to right, then the left and right columns
        interleaved bottom to top; within a cell, by index.  Equal
        distances therefore go to the point visited first.  A probe is
        settled at ring ``R`` once its best distance is below
        ``(R - 1) * cell_size`` (no point beyond ring ``R`` can be that
        close), or once ``R`` covers every occupied cell; an unsettled
        probe scans the next ring.  There is no ring cap: a probe
        however far from the points gets its nearest one.

        Returns:
            An ``int64`` array of point indices, one per probe.

        Raises:
            ValueError: if ``xs`` and ``ys`` differ in length, a probe
                is not finite, or the index is empty (and the batch
                is not).
        """
        qx = np.asarray(xs, dtype=np.float64).ravel()
        qy = np.asarray(ys, dtype=np.float64).ravel()
        if qx.shape != qy.shape:
            raise ValueError(
                f"nearest_many() got {qx.size} x and {qy.size} y coordinates"
            )
        nearest = np.empty(qx.size, dtype=np.int64)
        if not qx.size:
            return nearest
        if not self._points:
            raise ValueError("nearest point query on an empty GridIndex")
        if not (np.isfinite(qx).all() and np.isfinite(qy).all()):
            raise ValueError("nearest_many() probes must have finite coordinates")
        kx, ky = self._keys(qx, qy)
        order, cuts = _group_by_cell(kx, ky)
        for rows in np.split(order, cuts):
            cell = (int(kx[rows[0]]), int(ky[rows[0]]))
            nearest[rows] = self._nearest_in_cell(cell, qx[rows], qy[rows])
        return nearest

    def _nearest_in_cell(
        self, cell: Tuple[int, int], xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """:meth:`nearest_many` for probes that share ``cell``."""
        cx, cy = cell
        (x0, y0), (x1, y1) = self._lo, self._hi
        # Rings below ``near`` miss the occupied cells; ring ``far``
        # covers all of them.
        near = max(x0 - cx, cx - x1, y0 - cy, cy - y1, 0)
        far = max(abs(cx - x0), abs(cx - x1), abs(cy - y0), abs(cy - y1))
        best = np.full(xs.size, -1, dtype=np.int64)
        best_d2 = np.full(xs.size, np.inf)
        ring = max(self.FIRST_RINGS, near)
        self._scan(self._ring_points(cx, cy, near, ring), xs, ys, best, best_d2)
        unsettled = self._unsettled(ring, far, best_d2)
        self.widened += int(unsettled.sum())
        while unsettled.any():
            ring += 1
            rows = np.flatnonzero(unsettled)
            sub_best, sub_d2 = best[rows], best_d2[rows]
            self._scan(
                self._ring_points(cx, cy, ring, ring),
                xs[rows], ys[rows], sub_best, sub_d2,
            )
            best[rows], best_d2[rows] = sub_best, sub_d2
            unsettled[rows] = self._unsettled(ring, far, sub_d2)
        return best

    def _unsettled(self, ring: int, far: int, best_d2: np.ndarray) -> np.ndarray:
        """Which probes a point beyond ``ring`` could still be as close to."""
        if ring >= far:
            return np.zeros(best_d2.size, dtype=bool)
        return np.sqrt(best_d2) >= (ring - 1) * self._cell

    def _ring_points(self, cx: int, cy: int, first: int, last: int) -> np.ndarray:
        """Point indices of rings ``first..last`` in visiting order."""
        buckets = [
            self._buckets[key]
            for ring in range(first, last + 1)
            for key in self._ring_keys(cx, cy, ring)
            if key in self._buckets
        ]
        return np.concatenate(buckets) if buckets else np.empty(0, dtype=np.int64)

    def _scan(
        self,
        points: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        best: np.ndarray,
        best_d2: np.ndarray,
    ) -> None:
        """Lower ``best``/``best_d2`` in place to the first point of
        ``points`` at the least squared distance, where it is strictly
        closer than the current best (so ties keep the earlier visit)."""
        if not points.size:
            return
        px, py = self._x[points], self._y[points]
        step = max(1, min(self.BLOCK_ROWS, self.BLOCK_ENTRIES // points.size))
        for lo in range(0, xs.size, step):
            hi = min(lo + step, xs.size)
            d2 = px - xs[lo:hi, None]
            d2 *= d2
            dy = py - ys[lo:hi, None]
            dy *= dy
            d2 += dy
            first = d2.argmin(axis=1)
            d2_first = d2[np.arange(hi - lo), first]
            closer = d2_first < best_d2[lo:hi]
            best[lo:hi][closer] = points[first[closer]]
            best_d2[lo:hi][closer] = d2_first[closer]

    def within(self, point: Point, radius: float) -> List[int]:
        """Indices of all points within ``radius`` of ``point``."""
        result = []
        r2 = radius * radius
        cx_lo, cy_lo = self._key(point[0] - radius, point[1] - radius)
        cx_hi, cy_hi = self._key(point[0] + radius, point[1] + radius)
        for kx in range(cx_lo, cx_hi + 1):
            for ky in range(cy_lo, cy_hi + 1):
                bucket = self._buckets.get((kx, ky))
                if bucket is None:
                    continue
                for idx in bucket.tolist():
                    px, py = self._points[idx]
                    if (px - point[0]) ** 2 + (py - point[1]) ** 2 <= r2:
                        result.append(idx)
        return result

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        return (int(math.floor(x / self._cell)), int(math.floor(y / self._cell)))

    def _ring_keys(self, cx: int, cy: int, ring: int) -> Iterator[Tuple[int, int]]:
        """The cells at Chebyshev distance ``ring`` from ``(cx, cy)``
        that lie in the occupied cells' bounding box, in visiting order
        (see :meth:`nearest_many`)."""
        if ring == 0:
            yield (cx, cy)
            return
        (x0, y0), (x1, y1) = self._lo, self._hi
        bottom, top, left, right = cy - ring, cy + ring, cx - ring, cx + ring
        for x in range(max(left, x0), min(right, x1) + 1):
            if y0 <= bottom <= y1:
                yield (x, bottom)
            if y0 <= top <= y1:
                yield (x, top)
        for y in range(max(bottom + 1, y0), min(top - 1, y1) + 1):
            if x0 <= left <= x1:
                yield (left, y)
            if x0 <= right <= x1:
                yield (right, y)


def _group_by_cell(kx: np.ndarray, ky: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices sorted by cell ``(kx, ky)``, in index order within a
    cell, and the positions in that order where a new cell starts."""
    order = np.lexsort((ky, kx))
    sx, sy = kx[order], ky[order]
    cuts = np.flatnonzero((np.diff(sx) != 0) | (np.diff(sy) != 0)) + 1
    return order, cuts
