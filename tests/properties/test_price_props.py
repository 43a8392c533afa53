"""Property-based tests for the price function and the lower-bound
price (Definitions 11/12, Algorithm 4)."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.price import (
    LowerBoundPrice,
    intermediate_stop_count,
    price_from_distance,
    virtual_edge_price,
)

costs = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
distances = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(distance=distances, c=costs)
def test_price_at_least_one(distance, c):
    assert price_from_distance(distance, c) >= 1


@settings(max_examples=200, deadline=None)
@given(distance=distances, c=costs)
def test_price_definition(distance, c):
    """price = minimum stops such that distance/price <= C, i.e. the
    smallest integer p >= distance/C (floored at 1, with an epsilon
    tolerance for float noise)."""
    price = price_from_distance(distance, c)
    assert distance / price <= c + 1e-6 * max(1.0, distance)
    if price > 1:
        assert distance / (price - 1) > c - 1e-6 * max(1.0, distance)


@settings(max_examples=100, deadline=None)
@given(d1=distances, d2=distances, c=costs)
def test_price_triangle(d1, d2, c):
    assert virtual_edge_price(d1 + d2, c) <= (
        virtual_edge_price(d1, c) + virtual_edge_price(d2, c)
    )


@settings(max_examples=100, deadline=None)
@given(d1=distances, d2=distances, c=costs)
def test_price_monotone(d1, d2, c):
    lo, hi = min(d1, d2), max(d1, d2)
    assert price_from_distance(lo, c) <= price_from_distance(hi, c)


@settings(max_examples=100, deadline=None)
@given(distance=distances, c=costs)
def test_intermediate_count_consistent(distance, c):
    assert intermediate_stop_count(distance, c) == (
        price_from_distance(distance, c) - 1
    )


@st.composite
def point_sets(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    return [
        (draw(st.floats(-50, 50)), draw(st.floats(-50, 50))) for _ in range(n)
    ]


@settings(max_examples=50, deadline=None)
@given(points=point_sets(), c=costs, seed=st.integers(0, 10 ** 6))
def test_lbp_equals_fresh_minimum(points, c, seed):
    """The amortized lbIndex bookkeeping returns exactly the same value
    as recomputing min distE(v, B)/C from scratch, at every step."""
    from repro.network.geometry import euclidean

    lbp = LowerBoundPrice(points, max_adjacent_cost=c)
    order = list(range(len(points)))
    # deterministic pseudo-shuffle
    order = order[seed % len(order):] + order[: seed % len(order)]
    selected = []
    for stop in order[: max(1, len(order) // 2)]:
        lbp.add_selected(stop)
        selected.append(stop)
        for probe in range(len(points)):
            fresh = max(
                1.0,
                min(euclidean(points[probe], points[s]) for s in selected) / c,
            )
            assert lbp.value(probe) == fresh


def _scalar_fold(points, selected, c):
    """Algorithm 4's bound one stop and one member at a time."""
    from repro.network.geometry import euclidean

    bounds = []
    for point in points:
        best = math.inf
        for s in selected:
            candidate = euclidean(point, points[s]) / c
            if candidate < best:
                best = candidate
        bounds.append(max(1.0, best))
    return bounds


@settings(max_examples=50, deadline=None)
@given(points=point_sets(), c=costs, seed=st.integers(0, 10 ** 6))
def test_values_equal_scalar_fold(points, c, seed):
    """The array fold equals the scalar one bit for bit, whatever mix
    of stale and fresh ``lbIndex`` entries a call sees."""
    lbp = LowerBoundPrice(points, max_adjacent_cost=c)
    n = len(points)
    selected = []
    for k in range(n):
        lbp.add_selected((seed + k) % n)
        selected.append((seed + k) % n)
        # Probe a shifting subset, so some stops lag several members.
        probes = [v for v in range(n) if (v + k + seed) % 3]
        expected = _scalar_fold(points, selected, c)
        assert lbp.values(probes).tolist() == [expected[v] for v in probes]
    assert lbp.values(range(n)).tolist() == _scalar_fold(points, selected, c)


def test_values_match_math_hypot_not_np_hypot():
    """``np.hypot(0.105, 0.407)`` differs from ``math.hypot`` in the last
    bit; the bound must keep ``math.hypot``'s, as the scalar fold has."""
    points = [(0.0, 0.0), (0.105, 0.407), (0.096, 1.665)]
    lbp = LowerBoundPrice(points, max_adjacent_cost=0.25)
    lbp.add_selected(0)
    assert lbp.values([1, 2]).tolist() == _scalar_fold(points, [0], 0.25)[1:]
    lbp.add_selected(1)
    assert lbp.values([0, 1, 2]).tolist() == _scalar_fold(points, [0, 1], 0.25)


@settings(max_examples=50, deadline=None)
@given(points=point_sets(), c=costs)
def test_lbp_never_increases_as_b_grows(points, c):
    lbp = LowerBoundPrice(points, max_adjacent_cost=c)
    previous = {v: math.inf for v in range(len(points))}
    for stop in range(len(points)):
        lbp.add_selected(stop)
        for probe in range(len(points)):
            value = lbp.value(probe)
            assert value <= previous[probe] + 1e-9
            previous[probe] = value
