"""Unit tests for Algorithm 3 (stop selection) — the paper's Example 8
walked through exactly, plus equivalence of the selection variants."""

import numpy as np
import pytest

from repro.core.config import EBRRConfig
from repro.core.preprocess import preprocess_queries
from repro.core.selection import SelectionState, run_selection
from repro.exceptions import ConfigurationError

from ..conftest import V1, V2, V3, V4, V5


@pytest.fixture
def pre(toy_instance):
    return preprocess_queries(toy_instance)


def _config(**overrides):
    defaults = dict(max_stops=4, max_adjacent_cost=4.0, alpha=1.0, seed_stop=V1)
    defaults.update(overrides)
    return EBRRConfig(**defaults)


class TestExample8:
    """Example 8: K=4, C=4, B(0)={v1}; the first iteration picks v3
    (ΔU=12, p=2), the second picks v4 (ΔU=4, p=1), and the loop stops
    because 2 + 1 >= 2K/3 = 8/3."""

    def test_selection_order(self, toy_instance, pre):
        trace = run_selection(toy_instance, pre, _config())
        assert trace.selected == [V1, V3, V4]

    def test_prices(self, toy_instance, pre):
        trace = run_selection(toy_instance, pre, _config())
        assert trace.prices == [2, 1]
        assert trace.total_price == 3
        assert trace.total_price >= 2 * 4 / 3

    def test_gains(self, toy_instance, pre):
        trace = run_selection(toy_instance, pre, _config())
        # U(v1)=3, ΔU(v3)=12, ΔU_{v1,v3}(v4)=4
        assert trace.gains == [
            pytest.approx(3.0),
            pytest.approx(12.0),
            pytest.approx(4.0),
        ]

    def test_total_gain_telescopes_to_exact_utility(self, toy_instance, pre):
        trace = run_selection(toy_instance, pre, _config())
        assert trace.total_gain == pytest.approx(
            toy_instance.utility(trace.selected)
        )


class TestSelectionState:
    def test_marginal_gain_initial(self, toy_instance, pre):
        state = SelectionState(toy_instance, pre, _config())
        assert state.marginal_gain(V3) == pytest.approx(12.0)
        assert state.marginal_gain(V1) == pytest.approx(3.0)

    def test_marginal_gain_after_selection(self, toy_instance, pre):
        state = SelectionState(toy_instance, pre, _config())
        state.select(V3)
        # Example 8 second iteration: ΔU(v4) = 4 (v7's d_cur fell to 7).
        assert state.marginal_gain(V4) == pytest.approx(4.0)
        # v5 offers max(7-7, 0) = 0 now.
        assert state.marginal_gain(V5) == pytest.approx(0.0)

    def test_connectivity_gains_shrink(self, toy_instance, pre):
        state = SelectionState(toy_instance, pre, _config())
        state.select(V1)
        # v2 only adds route_4 once v1's three routes are covered.
        assert state.marginal_gain(V2) == pytest.approx(1.0)

    def test_true_price_example6(self, toy_instance, pre):
        state = SelectionState(toy_instance, pre, _config())
        state.select(V1)
        assert state.true_price(V3) == 2
        assert state.true_price(V2) == 1

    def test_duplicate_selection_rejected(self, toy_instance, pre):
        state = SelectionState(toy_instance, pre, _config())
        state.select(V1)
        with pytest.raises(ConfigurationError):
            state.select(V1)

    def test_marginal_gain_matches_exact(self, toy_instance, pre):
        """The incremental ΔU equals the exact two-evaluation ΔU at
        every step of a full selection."""
        state = SelectionState(toy_instance, pre, _config())
        base = []
        for stop in (V1, V3, V4, V2, V5):
            incremental = state.marginal_gain(stop)
            exact = toy_instance.marginal_utility(stop, base)
            assert incremental == pytest.approx(exact), f"stop {stop}"
            state.select(stop)
            base.append(stop)


class TestVariantsAgree:
    """All selection strategies must pick the same stops on the toy
    instance (they optimize the same ratio; only the work differs)."""

    def test_exhaustive_matches_lazy(self, toy_instance, pre):
        lazy = run_selection(toy_instance, pre, _config())
        vanilla = run_selection(
            toy_instance,
            pre,
            _config(use_lazy_selection=False, use_threshold_pruning=False),
        )
        assert lazy.selected == vanilla.selected
        assert lazy.prices == vanilla.prices

    def test_real_price_matches(self, toy_instance, pre):
        lazy = run_selection(toy_instance, pre, _config())
        real = run_selection(
            toy_instance, pre, _config(use_lower_bound_price=False)
        )
        assert lazy.selected == real.selected

    def test_no_pruning_matches(self, toy_instance, pre):
        lazy = run_selection(toy_instance, pre, _config())
        unpruned = run_selection(
            toy_instance, pre, _config(use_threshold_pruning=False)
        )
        assert lazy.selected == unpruned.selected

    def test_variants_agree_on_generated_city(self, small_city):
        from repro.core.preprocess import preprocess_queries as pq

        instance = small_city.instance(alpha=50.0)
        pre = preprocess_queries_cached = pq(instance)
        config = EBRRConfig(max_stops=10, max_adjacent_cost=2.0, alpha=50.0)
        lazy = run_selection(instance, pre, config)
        vanilla = run_selection(
            instance,
            pre,
            EBRRConfig(
                max_stops=10, max_adjacent_cost=2.0, alpha=50.0,
                use_lazy_selection=False, use_threshold_pruning=False,
            ),
        )
        # Same greedy optimum (ties could differ; utilities must match).
        assert lazy.total_gain == pytest.approx(vanilla.total_gain, rel=1e-9)
        assert vanilla.evaluations >= lazy.evaluations


class TestBudgetAndEdgeCases:
    def test_budget_respected(self, toy_instance, pre):
        for k in (2, 3, 4, 6, 9):
            config = _config(max_stops=k)
            trace = run_selection(toy_instance, pre, config)
            budget = 2 * k / 3
            # Stops only after meeting the budget (or exhausting stops).
            if trace.total_price < budget:
                assert len(trace.selected) == 5  # everything selected
            if len(trace.prices) > 1:
                assert sum(trace.prices[:-1]) < budget

    def test_explicit_seed(self, toy_instance, pre):
        trace = run_selection(toy_instance, pre, _config(seed_stop=V5))
        assert trace.selected[0] == V5

    def test_default_seed_is_best_utility(self, toy_instance, pre):
        trace = run_selection(toy_instance, pre, _config(seed_stop=None))
        assert trace.selected[0] == V3

    def test_invalid_seed_rejected(self, toy_instance, pre):
        from ..conftest import V6

        with pytest.raises(ConfigurationError):
            run_selection(toy_instance, pre, _config(seed_stop=V6))

    def test_selected_are_unique(self, toy_instance, pre):
        trace = run_selection(toy_instance, pre, _config(max_stops=30))
        assert len(set(trace.selected)) == len(trace.selected)

    def test_evaluations_counted(self, toy_instance, pre):
        trace = run_selection(toy_instance, pre, _config())
        assert trace.evaluations >= len(trace.selected) - 1
        assert trace.queue_inserts >= 1


class TestExhaustiveTieBreak:
    """The lowest-id tie-break of `_pick_exhaustive` must fire on ratios
    that are equal up to float noise, not only on bit-identical ones."""

    class _FakeState:
        """Duck-typed stand-in for SelectionState: `_pick_exhaustive`
        only touches selected, last_walk, and the batch evaluations
        marginal_gains and true_prices."""

        def __init__(self, gains, prices):
            self.selected = []
            self.last_walk = 0
            self._gains = gains
            self._prices = prices

        def marginal_gains(self, stops):
            return np.array([self._gains[stop] for stop in stops.tolist()])

        def true_prices(self, stops):
            return np.array(
                [self._prices[stop] for stop in stops.tolist()], dtype=np.int64
            )

    def _pick(self, gains, prices, order):
        from repro.core.preprocess import UtilityOrder
        from repro.core.selection import SelectionTrace, _pick_exhaustive

        state = self._FakeState(gains, prices)
        config = _config(use_lazy_selection=False, use_threshold_pruning=False)
        trace = SelectionTrace()
        stops = [stop for _, stop in order]
        utility_order = UtilityOrder(
            np.array([utility for utility, _ in order]),
            np.array(stops, dtype=np.int64),
            stops,
        )
        picked = _pick_exhaustive(state, utility_order, config, trace)
        assert picked is not None
        return picked[0]

    def test_exact_tie_prefers_lowest_id(self):
        gains = {7: 6.0, 3: 6.0}
        prices = {7: 2.0, 3: 2.0}
        assert self._pick(gains, prices, [(6.0, 7), (6.0, 3)]) == 3

    def test_ulp_noise_does_not_defeat_tie_break(self):
        # Same true ratio computed through different summation orders:
        # off by one ulp.  The higher id comes first in the order and is
        # infinitesimally "larger"; the tie-break must still pick id 3.
        noisy = (0.1 + 0.2) + 0.3   # 0.6000000000000001
        clean = 0.1 + (0.2 + 0.3)   # 0.6
        assert noisy != clean       # the trap is real
        gains = {7: noisy, 3: clean}
        prices = {7: 1.0, 3: 1.0}
        assert self._pick(gains, prices, [(noisy, 7), (clean, 3)]) == 3

    def test_genuinely_larger_ratio_still_wins(self):
        gains = {7: 8.0, 3: 6.0}
        prices = {7: 2.0, 3: 2.0}
        assert self._pick(gains, prices, [(8.0, 7), (6.0, 3)]) == 7
