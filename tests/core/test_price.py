"""Unit tests for the price function and the lower-bound price —
Examples 6 and 9 plus metric properties."""

import math

import pytest

from repro.core.price import (
    LowerBoundPrice,
    intermediate_stop_count,
    price_from_distance,
    virtual_edge_price,
)
from repro.exceptions import ConfigurationError

from ..conftest import TOY_COORDS, V1, V2, V3, V4


class TestPriceFromDistance:
    def test_example6_price_of_v3(self):
        """dist(v3, v1)=8 > C=4 -> one intermediate stop -> price 2."""
        assert price_from_distance(8.0, 4.0) == 2

    def test_example6_price_of_v2(self):
        """dist(v2, v1)=4 <= C=4 -> price 1."""
        assert price_from_distance(4.0, 4.0) == 1

    def test_zero_distance(self):
        assert price_from_distance(0.0, 4.0) == 1

    def test_exact_multiples_no_float_noise(self):
        assert price_from_distance(12.0, 4.0) == 3
        assert price_from_distance(12.0 + 1e-12, 4.0) == 3
        assert price_from_distance(12.1, 4.0) == 4

    def test_fig3_style_price(self):
        """Figure 3: a stop 2-3 C away needs 2 intermediates -> price 3."""
        assert price_from_distance(2.5 * 4.0, 4.0) == 3

    def test_invalid_c(self):
        with pytest.raises(ConfigurationError):
            price_from_distance(1.0, 0.0)

    def test_infinite_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            price_from_distance(math.inf, 4.0)

    def test_intermediate_count_is_price_minus_one(self):
        for dist in (0.0, 3.0, 4.0, 7.9, 8.0, 20.0):
            assert intermediate_stop_count(dist, 4.0) == (
                price_from_distance(dist, 4.0) - 1
            )

    def test_virtual_edge_price_alias(self):
        assert virtual_edge_price(8.0, 4.0) == price_from_distance(8.0, 4.0)


class TestPriceMetricProperties:
    def test_triangle_inequality(self):
        """price(a,c) <= price(a,b) + price(b,c) whenever the underlying
        distances satisfy the triangle inequality."""
        import itertools

        distances = [0.5, 1.0, 2.3, 4.0, 5.1, 9.9]
        c = 2.0
        for d_ab, d_bc in itertools.product(distances, repeat=2):
            d_ac = d_ab + d_bc  # worst case for the triangle inequality
            assert virtual_edge_price(d_ac, c) <= (
                virtual_edge_price(d_ab, c) + virtual_edge_price(d_bc, c)
            )

    def test_monotone_in_distance(self):
        previous = 0
        for dist in (0.0, 1.0, 2.0, 4.0, 4.1, 8.0, 8.1, 100.0):
            price = price_from_distance(dist, 4.0)
            assert price >= previous
            previous = price

    def test_antitone_in_c(self):
        for dist in (3.0, 8.0, 17.0):
            prices = [price_from_distance(dist, c) for c in (1.0, 2.0, 4.0, 8.0)]
            assert prices == sorted(prices, reverse=True)


class TestLowerBoundPrice:
    def test_example9(self):
        """lbp(v4) with B={v1}, C=4: dist(v1,v4)/4 = 12/4 = 3 (the toy's
        Euclidean and network distances coincide on the spine)."""
        lbp = LowerBoundPrice(TOY_COORDS, max_adjacent_cost=4.0)
        lbp.add_selected(V1)
        assert lbp.value(V4) == pytest.approx(3.0)

    def test_floors_at_one(self):
        lbp = LowerBoundPrice(TOY_COORDS, max_adjacent_cost=4.0)
        lbp.add_selected(V1)
        assert lbp.value(V2) == pytest.approx(1.0)  # 4/4 = 1
        assert lbp.value(V1) == pytest.approx(1.0)  # distance 0

    def test_minimum_over_selected(self):
        lbp = LowerBoundPrice(TOY_COORDS, max_adjacent_cost=4.0)
        lbp.add_selected(V1)
        assert lbp.value(V4) == pytest.approx(3.0)
        lbp.add_selected(V3)
        # v4 is 4 away from v3 -> bound drops to max(1, 1) = 1.
        assert lbp.value(V4) == pytest.approx(1.0)

    def test_lb_index_amortization(self):
        """After value(v) the index points past the scanned prefix; a
        repeat call scans nothing new."""
        lbp = LowerBoundPrice(TOY_COORDS, max_adjacent_cost=4.0)
        lbp.add_selected(V1)
        lbp.value(V4)
        assert lbp.scanned_fraction(V4) == 1.0
        lbp.add_selected(V2)
        assert lbp.scanned_fraction(V4) == 0.5
        lbp.value(V4)
        assert lbp.scanned_fraction(V4) == 1.0

    def test_is_lower_bound_of_true_price(self, toy_network):
        """lbp(v) <= p(v, B) for every node and growing B (the property
        Claim 2 needs)."""
        from repro.network.engine import engine_for

        c = 4.0
        lbp = LowerBoundPrice(TOY_COORDS, max_adjacent_cost=c)
        nearest = engine_for(toy_network).incremental_nearest()
        for source in (V1, V3):
            lbp.add_selected(source)
            nearest.add_source(source)
            for v in toy_network.nodes():
                true_price = price_from_distance(nearest.distance[v], c)
                assert lbp.value(v) <= true_price + 1e-9

    def test_empty_b_rejected(self):
        lbp = LowerBoundPrice(TOY_COORDS, max_adjacent_cost=4.0)
        with pytest.raises(ConfigurationError):
            lbp.value(V4)

    def test_invalid_c(self):
        with pytest.raises(ConfigurationError):
            LowerBoundPrice(TOY_COORDS, max_adjacent_cost=-1.0)

    def test_selected_property(self):
        lbp = LowerBoundPrice(TOY_COORDS, max_adjacent_cost=4.0)
        lbp.add_selected(V2)
        lbp.add_selected(V4)
        assert lbp.selected == [V2, V4]
