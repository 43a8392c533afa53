"""Unit tests for the EBRR configuration."""

import pytest

from repro.core.config import DEFAULT_PRICE_BUDGET_FRACTION, EBRRConfig
from repro.exceptions import ConfigurationError


class TestValidation:
    def test_valid_defaults(self):
        config = EBRRConfig(max_stops=10, max_adjacent_cost=2.0, alpha=1.0)
        assert config.use_threshold_pruning
        assert config.use_lazy_selection
        assert config.use_lower_bound_price
        assert config.refine_path
        assert config.seed_stop is None

    def test_k_minimum(self):
        with pytest.raises(ConfigurationError, match="at least 2"):
            EBRRConfig(max_stops=1, max_adjacent_cost=2.0)

    def test_c_positive(self):
        with pytest.raises(ConfigurationError):
            EBRRConfig(max_stops=5, max_adjacent_cost=0.0)
        with pytest.raises(ConfigurationError):
            EBRRConfig(max_stops=5, max_adjacent_cost=-1.0)

    def test_alpha_positive(self):
        with pytest.raises(ConfigurationError):
            EBRRConfig(max_stops=5, max_adjacent_cost=2.0, alpha=0.0)

    def test_budget_fraction_range(self):
        with pytest.raises(ConfigurationError):
            EBRRConfig(max_stops=5, max_adjacent_cost=2.0,
                       price_budget_fraction=0.0)
        with pytest.raises(ConfigurationError):
            EBRRConfig(max_stops=5, max_adjacent_cost=2.0,
                       price_budget_fraction=1.5)

    def test_frozen(self):
        config = EBRRConfig(max_stops=5, max_adjacent_cost=2.0)
        with pytest.raises(Exception):
            config.max_stops = 9  # type: ignore[misc]


class TestDerived:
    def test_price_budget_is_two_thirds_k(self):
        config = EBRRConfig(max_stops=30, max_adjacent_cost=2.0)
        assert config.price_budget == pytest.approx(20.0)
        assert DEFAULT_PRICE_BUDGET_FRACTION == pytest.approx(2.0 / 3.0)

    def test_custom_budget_fraction(self):
        config = EBRRConfig(
            max_stops=30, max_adjacent_cost=2.0, price_budget_fraction=0.5
        )
        assert config.price_budget == pytest.approx(15.0)
