"""Unit tests for planar geometry helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.geometry import (
    GridIndex,
    bounding_box,
    euclidean,
    interpolate,
    midpoint,
    points_within_radius,
    polyline_length,
)


class TestScalarHelpers:
    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)
        assert euclidean((1, 1), (1, 1)) == 0.0

    def test_midpoint(self):
        assert midpoint((0, 0), (2, 4)) == (1.0, 2.0)

    def test_interpolate_endpoints_and_clamp(self):
        assert interpolate((0, 0), (10, 0), 0.0) == (0.0, 0.0)
        assert interpolate((0, 0), (10, 0), 1.0) == (10.0, 0.0)
        assert interpolate((0, 0), (10, 0), 0.25) == (2.5, 0.0)
        assert interpolate((0, 0), (10, 0), -0.5) == (0.0, 0.0)
        assert interpolate((0, 0), (10, 0), 1.5) == (10.0, 0.0)

    def test_bounding_box(self):
        box = bounding_box([(1, 5), (-2, 3), (4, -1)])
        assert box == (-2, -1, 4, 5)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])

    def test_polyline_length(self):
        assert polyline_length([(0, 0), (3, 4), (3, 8)]) == pytest.approx(9.0)
        assert polyline_length([(0, 0)]) == 0.0

    def test_points_within_radius(self):
        points = [(0, 0), (1, 0), (5, 5)]
        assert points_within_radius(points, (0, 0), 1.5) == [0, 1]
        assert points_within_radius(points, (0, 0), 0.5) == [0]


class TestGridIndex:
    def test_nearest_exact(self):
        points = [(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)]
        index = GridIndex(points, cell_size=1.0)
        assert index.nearest((0.1, 0.1)) == 0
        assert index.nearest((9.5, 0.4)) == 1
        assert index.nearest((5.0, 4.0)) == 2

    def test_nearest_matches_brute_force(self):
        rng = np.random.default_rng(0)
        points = [tuple(p) for p in rng.uniform(0, 20, size=(200, 2))]
        index = GridIndex(points, cell_size=0.7)
        for probe in rng.uniform(-2, 22, size=(50, 2)):
            probe_t = (float(probe[0]), float(probe[1]))
            expected = min(
                range(len(points)), key=lambda i: euclidean(points[i], probe_t)
            )
            assert index.nearest(probe_t) == expected

    def test_far_probe_gets_its_nearest_point(self):
        # A 4.5 km square of points 0.5 km apart and a probe 10.5 km east
        # of it: farther out than every ring a search capped at the
        # grid's extent would visit.
        points = [(0.5 * i, 0.5 * j) for i in range(10) for j in range(10)]
        probe = (15.0, 2.2)
        expected = min(range(len(points)), key=lambda i: euclidean(points[i], probe))
        assert GridIndex(points, cell_size=0.5).nearest(probe) == expected

    def test_nearest_many_matches_nearest(self):
        rng = np.random.default_rng(2)
        points = [tuple(p) for p in rng.uniform(0, 10, size=(300, 2))]
        index = GridIndex(points, cell_size=0.5)
        probes = rng.uniform(-3, 13, size=(400, 2))
        found = index.nearest_many(probes[:, 0], probes[:, 1])
        assert found.dtype == np.int64
        assert found.tolist() == [index.nearest(tuple(p)) for p in probes.tolist()]

    def test_nearest_many_empty_batch(self):
        for points in ([], [(0.0, 0.0)]):
            found = GridIndex(points, cell_size=1.0).nearest_many([], [])
            assert found.shape == (0,)

    def test_nearest_many_rejects_bad_batches(self):
        index = GridIndex([(0.0, 0.0)], cell_size=1.0)
        with pytest.raises(ValueError):
            index.nearest_many([0.0, 1.0], [0.0])
        with pytest.raises(ValueError):
            index.nearest_many([math.nan], [0.0])

    def test_nearest_empty_raises(self):
        with pytest.raises(ValueError):
            GridIndex([], cell_size=1.0).nearest((0, 0))

    def test_within_matches_brute_force(self):
        rng = np.random.default_rng(1)
        points = [tuple(p) for p in rng.uniform(0, 10, size=(100, 2))]
        index = GridIndex(points, cell_size=0.9)
        for probe in rng.uniform(0, 10, size=(20, 2)):
            probe_t = (float(probe[0]), float(probe[1]))
            expected = set(points_within_radius(points, probe_t, 2.0))
            assert set(index.within(probe_t, 2.0)) == expected

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex([(0, 0)], cell_size=0.0)

    def test_len(self):
        assert len(GridIndex([(0, 0), (1, 1)], cell_size=1.0)) == 2


class _RingSearchOracle:
    """The per-point ring search ``GridIndex.nearest`` used before
    :meth:`GridIndex.nearest_many`, copied verbatim.  Its ring cap (the
    grid's extent plus two) cuts the search short for some probes off
    the grid: they get -1 or a point that is not nearest."""

    def __init__(self, points, cell_size=0.5):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._points = list(points)
        self._cell = cell_size
        self._buckets: dict = {}
        for idx, (x, y) in enumerate(self._points):
            self._buckets.setdefault(self._key(x, y), []).append(idx)

    def _key(self, x, y):
        return (int(math.floor(x / self._cell)), int(math.floor(y / self._cell)))

    def nearest(self, point):
        if not self._points:
            raise ValueError("nearest() on an empty GridIndex")
        cx, cy = self._key(point[0], point[1])
        best_idx = -1
        best_d2 = math.inf
        ring = 0
        max_ring = self._max_ring()
        while ring <= max_ring:
            found_any = False
            for key in self._ring_keys(cx, cy, ring):
                for idx in self._buckets.get(key, ()):
                    found_any = True
                    px, py = self._points[idx]
                    d2 = (px - point[0]) ** 2 + (py - point[1]) ** 2
                    if d2 < best_d2:
                        best_d2 = d2
                        best_idx = idx
            if best_idx >= 0 and not found_any and ring * self._cell > math.sqrt(best_d2) + self._cell:
                break
            if best_idx >= 0 and (ring - 1) * self._cell > math.sqrt(best_d2):
                break
            ring += 1
        return best_idx

    def _max_ring(self):
        keys = self._buckets.keys()
        if not keys:
            return 0
        xs = [k[0] for k in keys]
        ys = [k[1] for k in keys]
        return (max(xs) - min(xs)) + (max(ys) - min(ys)) + 2

    @staticmethod
    def _ring_keys(cx, cy, ring):
        if ring == 0:
            yield (cx, cy)
            return
        for dx in range(-ring, ring + 1):
            yield (cx + dx, cy - ring)
            yield (cx + dx, cy + ring)
        for dy in range(-ring + 1, ring):
            yield (cx - ring, cy + dy)
            yield (cx + ring, cy + dy)


def _scaled_pairs(lo, hi, step):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(
        lambda p: (p[0] * step, p[1] * step)
    )


#: Points on a 0.5 lattice, and probes on a 0.25 lattice, so many
#: probes sit exactly halfway between points.
_LATTICE_POINTS = _scaled_pairs(-8, 8, 0.5)
_SCATTERED_POINTS = st.tuples(st.floats(-4, 4), st.floats(-4, 4))
#: Probes reach well past the points, off the grid.
_PROBES = st.one_of(
    _scaled_pairs(-40, 40, 0.25), st.tuples(st.floats(-10, 10), st.floats(-10, 10))
)


@st.composite
def _point_sets(draw):
    """Lattice or scattered points, drawn with repeats from a small pool
    so duplicate coordinates are common."""
    pool = draw(
        st.lists(st.one_of(_LATTICE_POINTS, _SCATTERED_POINTS), min_size=1, max_size=20)
    )
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@settings(max_examples=150, deadline=None)
@given(
    points=_point_sets(),
    probes=st.lists(_PROBES, max_size=20),
    cell=st.floats(0.25, 2.0),
)
def test_nearest_many_matches_ring_search_oracle(points, probes, cell):
    """Wherever the old ring search returns a nearest point,
    ``nearest_many`` returns the same one, ties included; every answer
    is a nearest point."""
    index = GridIndex(points, cell_size=cell)
    oracle = _RingSearchOracle(points, cell_size=cell)
    found = index.nearest_many([x for x, _ in probes], [y for _, y in probes])
    assert found.shape == (len(probes),)
    px = np.array([x for x, _ in points])
    py = np.array([y for _, y in points])
    for (x, y), got in zip(probes, found.tolist()):
        d2 = (px - x) ** 2 + (py - y) ** 2
        assert d2[got] == d2.min()
        want = oracle.nearest((x, y))
        if want >= 0 and d2[want] == d2.min():
            assert got == want
