"""Property tests for the greedy selection: on randomized instances,
every stop the filtered/lazy machinery picks must be a true argmax of
``ΔU_B(v) / p(v, B)`` — i.e. the accelerations never change the greedy
decision, only the work done to find it."""

import heapq
import itertools
import math
from collections import Counter
from typing import List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import selection
from repro.core.config import EBRRConfig
from repro.core.ebrr import plan_route
from repro.core.preprocess import preprocess_queries
from repro.core.price import price_from_distance
from repro.core.selection import SelectionState, SelectionTrace, run_selection
from repro.core.utility import BRRInstance
from repro.demand.generators import hotspot_demand
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city
from repro.transit.builder import build_transit_network


def _random_instance(seed):
    network = grid_city(7, 7, seed=seed)
    transit = build_transit_network(
        network, num_routes=3, seed=seed + 1, stop_spacing_km=0.9
    )
    queries = hotspot_demand(
        network, 250, num_hotspots=3, transit=transit, seed=seed + 2
    )
    return BRRInstance(transit, queries, alpha=4.0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_each_pick_is_a_true_argmax(seed):
    instance = _random_instance(seed)
    pre = preprocess_queries(instance)
    config = EBRRConfig(max_stops=9, max_adjacent_cost=1.5, alpha=4.0)
    trace = run_selection(instance, pre, config)

    # Replay: before each pick, exhaustively evaluate every remaining
    # stop's true ratio and confirm the pick ties the maximum.
    state = SelectionState(instance, pre, config)
    universe = instance.candidates + instance.existing_stops
    state.select(trace.selected[0])
    for picked in trace.selected[1:]:
        best_ratio = -math.inf
        for v in universe:
            if v in state.selected_set:
                continue
            ratio = state.marginal_gain(v) / state.true_price(v)
            best_ratio = max(best_ratio, ratio)
        picked_ratio = state.marginal_gain(picked) / state.true_price(picked)
        assert picked_ratio == pytest.approx(best_ratio, rel=1e-9, abs=1e-9)
        state.select(picked)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_all_variants_reach_equal_total_gain(seed):
    instance = _random_instance(seed)
    pre = preprocess_queries(instance)
    base = EBRRConfig(max_stops=9, max_adjacent_cost=1.5, alpha=4.0)
    reference = run_selection(instance, pre, base)
    for overrides in (
        dict(use_threshold_pruning=False),
        dict(use_lower_bound_price=False),
        dict(use_lazy_selection=False, use_threshold_pruning=False),
        dict(use_lazy_selection=False),
    ):
        variant_config = EBRRConfig(
            max_stops=9, max_adjacent_cost=1.5, alpha=4.0, **overrides
        )
        variant = run_selection(instance, pre, variant_config)
        assert variant.total_gain == pytest.approx(
            reference.total_gain, rel=1e-9
        )
        assert variant.total_price == reference.total_price


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_prices_match_distance_definition(seed):
    """Every recorded price equals max(1, ceil(dist(v, B)/C)) computed
    from a fresh multi-source Dijkstra at that iteration."""
    from repro.core.price import price_from_distance
    from repro.network.engine import engine_for

    instance = _random_instance(seed)
    pre = preprocess_queries(instance)
    config = EBRRConfig(max_stops=9, max_adjacent_cost=1.5, alpha=4.0)
    trace = run_selection(instance, pre, config)
    selected_so_far = [trace.selected[0]]
    for stop, price in zip(trace.selected[1:], trace.prices):
        dist = engine_for(instance.network).multi_source(selected_so_far)
        assert price == price_from_distance(dist[stop], 1.5)
        selected_so_far.append(stop)


@pytest.mark.parametrize("seed", [31, 32])
def test_total_gain_telescopes_to_exact_utility(seed):
    """Σ ΔU over the trace equals the exact utility of the selected set
    (the incremental bookkeeping never drifts from the true objective).

    Note the greedy *ratio* sequence is NOT monotone in general: prices
    are state-dependent and can drop as B grows (a distant stop becomes
    cheap once a neighbour is selected), so a later pick can legally
    have a higher ratio than an earlier one.
    """
    instance = _random_instance(seed)
    pre = preprocess_queries(instance)
    config = EBRRConfig(max_stops=12, max_adjacent_cost=1.5, alpha=4.0)
    trace = run_selection(instance, pre, config)
    assert trace.total_gain == pytest.approx(
        instance.utility(trace.selected), rel=1e-9
    )


# ----------------------------------------------------------------------
# The heap RQueue oracle
# ----------------------------------------------------------------------
#
# ``_heap_pick_lazy`` is the filtered queue as a literal heap of
# ``(-priority, counter, ...)`` entries, one push per upper-bound entry,
# kept verbatim as the reference the array RQueue must equal.


def _heap_pick_lazy(
    state: SelectionState,
    utility_order: Sequence[Tuple[float, int]],
    config: EBRRConfig,
    trace: SelectionTrace,
) -> Optional[Tuple[int, float, int]]:
    """The filtered queue: threshold pruning + lazy upper bounds.

    Heap entries are ``(-priority, tiebreak, stop, gain, price)`` where
    ``gain/price`` is ``None`` for upper-bound entries and the true
    evaluation for re-inserted ones.  Popping a true entry proves it is
    the argmax (Claim 2): every remaining entry's priority — an upper
    bound of its true ratio — is no larger.
    """
    # Line 1: the threshold from the first unselected stop's true ratio.
    first = next(
        (stop for _, stop in utility_order if stop not in state.selected_set), None
    )
    if first is None:
        return None
    first_gain = state.marginal_gain(first)
    first_price = state.true_price(first)
    trace.evaluations += 1
    threshold = first_gain / first_price

    counter = itertools.count()
    heap: List[Tuple[float, int, int, Optional[float], Optional[int]]] = [
        (-threshold, next(counter), first, first_gain, first_price)
    ]
    trace.queue_inserts += 1

    # Lines 3-6: build the RQueue from the initial-utility order.
    for initial_utility, stop in utility_order:
        if stop == first or stop in state.selected_set:
            continue
        if config.use_threshold_pruning and initial_utility < threshold:
            break
        if config.use_lower_bound_price:
            denominator: float = state.lower_bound.value(stop)
        else:
            denominator = float(state.true_price(stop))
        priority = initial_utility / denominator if denominator > 0 else math.inf
        heapq.heappush(heap, (-priority, next(counter), stop, None, None))
        trace.queue_inserts += 1

    # Lines 7-12: lazy evaluation.
    while heap:
        neg_priority, _, stop, gain, price = heapq.heappop(heap)
        if gain is not None and price is not None:
            return stop, gain, price
        true_gain = state.marginal_gain(stop)
        true_price = state.true_price(stop)
        trace.evaluations += 1
        ratio = true_gain / true_price
        heapq.heappush(heap, (-ratio, next(counter), stop, true_gain, true_price))
    return None


LAZY_SWITCH_SETS = {
    "EBRR": {},
    "w/o filtered queue": dict(use_threshold_pruning=False),
    "real price": dict(use_lower_bound_price=False),
    "real price, no pruning": dict(
        use_lower_bound_price=False, use_threshold_pruning=False
    ),
}


@pytest.mark.parametrize("switches", list(LAZY_SWITCH_SETS))
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_array_rqueue_equals_heap_oracle(seed, switches, monkeypatch):
    """Every trace field — picks, gains, prices, evaluations and queue
    inserts — equals the heap's, on instances with many tied utilities
    and priorities."""
    instance = _random_instance(seed)
    pre = preprocess_queries(instance)
    config = EBRRConfig(
        max_stops=12, max_adjacent_cost=1.5, alpha=4.0, **LAZY_SWITCH_SETS[switches]
    )
    rewritten = run_selection(instance, pre, config)

    pairs = sorted(
        ((u, v) for v, u in pre.initial_utility.items()),
        key=lambda item: (-item[0], item[1]),
    )
    monkeypatch.setattr(
        selection,
        "_pick_lazy",
        lambda state, order, config, trace: _heap_pick_lazy(state, pairs, config, trace),
    )
    oracle = run_selection(instance, pre, config)
    assert vars(rewritten) == vars(oracle)


# ----------------------------------------------------------------------
# The fold oracle
# ----------------------------------------------------------------------
#
# ``_fold_oracle`` recomputes ``ΔU_B(v)`` the way the selection state did
# before it kept terms in arrays: a python left fold over the ``rnn``
# view against each query's nearest distance recomputed from ``B``.  The
# heap oracle above calls the batch-backed ``marginal_gain``, so this is
# what guards the gain arithmetic itself.

FOLD_SWITCH_SETS = dict(
    LAZY_SWITCH_SETS,
    **{
        "vanilla": dict(use_lazy_selection=False, use_threshold_pruning=False),
        "vanilla, pruning": dict(use_lazy_selection=False),
    },
)


def _fold_oracle(state: SelectionState, stop: int) -> float:
    instance, pre = state.instance, state.preprocess
    if instance.is_existing[stop]:
        covered = instance.transit.connectivity_mask(state.selected)
        return instance.alpha * instance.transit.marginal_connectivity(stop, covered)
    rnn = pre.rnn
    nearest = dict(pre.nn_distance)
    for chosen in state.selected:
        for query_node, dist in rnn.get(chosen, ()):
            nearest[query_node] = min(nearest[query_node], dist)
    gain = 0.0
    for query_node, dist in rnn.get(stop, ()):
        cur = nearest[query_node]
        if cur > dist:
            gain += instance.query_counts[query_node] * (cur - dist)
    return gain


def _price_oracle(state: SelectionState) -> List[int]:
    """``price_from_distance`` of every node over a fresh multi-source
    search from ``B`` (``0`` where ``B`` is out of reach)."""
    engine = SearchEngine(state.instance.network, kernel="python")
    dist = engine.multi_source(sorted(set(state.selected)), cached=False)
    c = state.config.max_adjacent_cost
    return [price_from_distance(d, c) if math.isfinite(d) else 0 for d in dist]


def _checked(seen: Counter):
    """Wrappers of the batch evaluations that compare every element of
    every batch with the oracles, bit for bit."""
    gains_of, prices_of = SelectionState.marginal_gains, SelectionState.true_prices

    def marginal_gains(state, stops):
        gains = gains_of(state, stops)
        assert gains.dtype == np.float64
        for stop, gain in zip(np.asarray(stops).tolist(), gains.tolist()):
            assert gain == _fold_oracle(state, stop)
            if state.instance.is_existing[stop]:
                seen["existing"] += 1
            elif stop not in state.preprocess.rnn:
                seen["empty rnn"] += 1
            else:
                seen["candidate"] += 1
        return gains

    def true_prices(state, stops):
        prices = prices_of(state, stops)
        assert prices.dtype == np.int64
        expected = _price_oracle(state)
        for stop, price in zip(np.asarray(stops).tolist(), prices.tolist()):
            assert price == expected[stop]
            seen["price"] += 1
        return prices

    return marginal_gains, true_prices


def _sparse_instance(seed, num_queries):
    """A 7 x 7 grid with a few dozen queries, so that some candidates
    are in no query's RNN set."""
    network = grid_city(7, 7, seed=seed)
    transit = build_transit_network(
        network, num_routes=3, seed=seed + 1, stop_spacing_km=0.9
    )
    queries = hotspot_demand(
        network, num_queries, num_hotspots=2, transit=transit, seed=seed + 2
    )
    return BRRInstance(transit, queries, alpha=4.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10 ** 5),
    num_queries=st.integers(3, 30),
    switches=st.sampled_from(sorted(FOLD_SWITCH_SETS)),
    k=st.integers(3, 12),
    sequence=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
)
def test_batched_evaluations_equal_python_fold(seed, num_queries, switches, k, sequence):
    """Every batched ``ΔU`` equals the python fold and every batched
    price equals ``price_from_distance``, with ``==``: through a whole
    plan (selection's picks and refinement's terminal extensions) under
    each switch set, then over every stop after each step of a random
    selection sequence of candidates and existing stops."""
    instance = _sparse_instance(seed, num_queries)
    pre = preprocess_queries(instance)
    assume(any(v not in pre.rnn for v in instance.candidates))
    config = EBRRConfig(
        max_stops=k, max_adjacent_cost=1.5, alpha=4.0, **FOLD_SWITCH_SETS[switches]
    )
    seen: Counter = Counter()
    marginal_gains, true_prices = _checked(seen)
    with mock.patch.object(SelectionState, "marginal_gains", marginal_gains), \
            mock.patch.object(SelectionState, "true_prices", true_prices):
        plan_route(instance, config, preprocess=pre)
        state = SelectionState(instance, pre, config)
        universe = np.array(instance.candidates + instance.existing_stops)
        for pick in sequence:
            stop = int(universe[pick % universe.size])
            if stop not in state.selected_set:
                state.select(stop)
            state.marginal_gains(universe)
            state.true_prices(universe)
    assert seen["existing"] and seen["empty rnn"] and seen["candidate"]
    assert seen["price"]
