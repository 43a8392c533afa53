"""Stop selection — Algorithm 3 (with Claims 1 and 2) of the paper.

Each iteration finds the most *profitable* stop: the one maximizing
``ΔU_B(v) / p(v, B)``.  Three acceleration layers, individually
switchable for the ablation study:

* **threshold pruning** (Claim 1): evaluate the true ratio of the
  highest-initial-utility stop; every stop whose initial utility falls
  below that ratio can never win and is never inserted in the queue;
* **lazy selection** (Claim 2): the queue is ordered by the upper bound
  ``U(v) / lbp(v)``; popping an already-evaluated (true-ratio) entry
  proves it is the argmax because every remaining upper bound is below
  it;
* **lower-bound price** (Algorithm 4): the upper bound's denominator is
  the amortized Euclidean bound instead of the true network price.

Marginal gains come from the preprocessing RNN sets (exact — see
:mod:`repro.core.preprocess`), marginal connectivity from the transit
bitmasks, and the true price from the incrementally maintained
nearest-distance-to-``B`` array; so a "function evaluation" here is
cheap, but the *number* of evaluations is still the ablation metric and
is counted in the trace.

The ``RQueue`` is built from arrays, not pushed entry by entry: per
pick, one ``searchsorted`` cuts the threshold prefix of the utility
order, one pass computes its upper-bound priorities, and one stable
``argsort`` yields the order a heap keyed ``(-priority, insertion
counter)`` would pop them in.  Only the true evaluations are handled one
at a time, so a pick costs a few numpy passes plus its evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, InfeasibleRouteError
from ..network.engine import SearchEngine, engine_for
from ..obs import span
from .config import EBRRConfig
from .numeric import close
from .preprocess import PreprocessResult
from .price import LowerBoundPrice, price_from_distance
from .utility import BRRInstance


@dataclass
class SelectionTrace:
    """Everything the selection loop decided, for analysis and tests.

    Attributes:
        selected: the profitable stops ``v(0), v(1), ...`` in selection
            order (``B(i)`` as an ordered list).
        prices: ``p(v(j), B(j-1))`` per iteration, aligned with
            ``selected[1:]`` (``v(0)`` is free — the budget sum of
            Algorithm 1 starts at ``j = 1``).
        gains: the marginal utility ``ΔU`` of each selected stop,
            aligned with ``selected`` (entry 0 is ``U(v(0))``).
        evaluations: number of true function evaluations performed —
            the quantity the filtered queue exists to minimize.
        queue_inserts: total entries pushed into the RQueue.
    """

    selected: List[int] = field(default_factory=list)
    prices: List[int] = field(default_factory=list)
    gains: List[float] = field(default_factory=list)
    evaluations: int = 0
    queue_inserts: int = 0

    @property
    def total_price(self) -> int:
        """``Σ_j p(v(j), B(j-1))`` — checked against ``2K/3``."""
        return sum(self.prices)

    @property
    def total_gain(self) -> float:
        """Sum of marginal gains = ``U(B(i))`` by telescoping."""
        return sum(self.gains)


class SelectionState:
    """Mutable incremental state of the greedy selection.

    Maintains, as stops join ``B``:

    * ``current_nn[q]`` — per node, each query node's distance to its
      nearest stop in ``S_existing ∪ B`` (starts at ``dist(q, nn(q))``;
      ``inf`` at nodes that hold no query);
    * ``covered_mask`` — the union route bitmask of ``B`` for O(1)
      marginal connectivity;
    * ``dist_to_b`` — network distance from every node to ``B``, the
      minimum of the selected stops' cached SSSP rows, feeding the true
      price.  A stop's row is folded in when a price is next read, so
      the stops refinement commits and the last pick cost no search;
    * the Algorithm 4 lower-bound price structure.
    """

    def __init__(
        self,
        instance: BRRInstance,
        preprocess: PreprocessResult,
        config: EBRRConfig,
        *,
        engine: Optional[SearchEngine] = None,
    ) -> None:
        self.instance = instance
        self.preprocess = preprocess
        self.config = config
        self.engine = engine if engine is not None else engine_for(instance.network)
        num_nodes = instance.network.num_nodes
        self.current_nn: List[float] = [math.inf] * num_nodes
        for query_node, dist in preprocess.nn_distance.items():
            self.current_nn[query_node] = dist
        # Per-node query multiplicities as floats: ``count * Δ`` rounds
        # the same whether ``count`` is an int or its exact float.
        self._weights: List[float] = [0.0] * num_nodes
        for query_node, count in instance.query_counts.items():
            self._weights[query_node] = float(count)
        self.covered_mask: int = 0
        self.selected: List[int] = []
        self.selected_set: set = set()
        self.dist_to_b = self.engine.incremental_nearest(phase="selection")
        self.lower_bound = LowerBoundPrice(
            self.engine.csr.np_coords, config.max_adjacent_cost
        )

    # -- true function evaluations -------------------------------------

    def marginal_gain(self, stop: int) -> float:
        """``ΔU_B(stop)`` — exact, via RNN sets / route bitmasks."""
        instance = self.instance
        if instance.is_existing[stop]:
            return instance.alpha * instance.transit.marginal_connectivity(
                stop, self.covered_mask
            )
        gain = 0.0
        weights = self._weights
        current = self.current_nn
        for query_node, dist in self.preprocess.rnn.get(stop, ()):  # type: ignore[arg-type]
            cur = current[query_node]
            if cur > dist:
                gain += weights[query_node] * (cur - dist)
        return gain

    def true_price(self, stop: int) -> int:
        """``p(stop, B)`` from the maintained network distance to B."""
        distance = float(self.dist_to_b.distance[stop])
        if not math.isfinite(distance):
            raise InfeasibleRouteError(
                f"stop {stop} cannot reach the selected set — disconnected network"
            )
        return price_from_distance(distance, self.config.max_adjacent_cost)

    # -- mutation --------------------------------------------------------

    def select(self, stop: int) -> None:
        """Commit ``stop`` to ``B`` and update all incremental state."""
        if stop in self.selected_set:
            raise ConfigurationError(f"stop {stop} already selected")
        instance = self.instance
        if instance.is_existing[stop]:
            self.covered_mask |= instance.transit.route_mask(stop)
        else:
            current = self.current_nn
            for query_node, dist in self.preprocess.rnn.get(stop, ()):
                if dist < current[query_node]:
                    current[query_node] = dist
        self.selected.append(stop)
        self.selected_set.add(stop)
        self.dist_to_b.add_source(stop)
        self.lower_bound.add_selected(stop)


class _UtilityOrder(NamedTuple):
    """Algorithm 2's stops in ``(-U, id)`` order — the order of
    :meth:`~repro.core.preprocess.PreprocessResult.utility_order` — as
    arrays, plus the stop ids as a list."""

    utilities: np.ndarray  # non-increasing
    stops: np.ndarray
    stop_list: List[int]

    @classmethod
    def of(cls, preprocess: PreprocessResult) -> "_UtilityOrder":
        table = preprocess.initial_utility
        stops = np.fromiter(table.keys(), np.int64, len(table))
        utilities = np.fromiter(table.values(), np.float64, len(table))
        rank = np.lexsort((stops, -utilities))
        stops = stops[rank]
        return cls(utilities[rank], stops, stops.tolist())


def run_selection(
    instance: BRRInstance,
    preprocess: PreprocessResult,
    config: EBRRConfig,
    *,
    engine: Optional[SearchEngine] = None,
) -> SelectionTrace:
    """Lines 2-7 of Algorithm 1: iteratively select profitable stops
    until the accumulated price reaches the ``2K/3`` budget.

    Args:
        instance / preprocess / config: the problem and its Algorithm 2
            output.
        engine: search engine for the incremental ``dist(·, B)``
            maintenance; defaults to the network's shared engine.

    Returns:
        The full :class:`SelectionTrace`.

    Raises:
        InfeasibleRouteError: if no stop can be selected at all.
    """
    trace, _ = _select_with_state(instance, preprocess, config, engine)
    return trace


def _select_with_state(
    instance: BRRInstance,
    preprocess: PreprocessResult,
    config: EBRRConfig,
    engine: Optional[SearchEngine],
) -> Tuple[SelectionTrace, SelectionState]:
    """:func:`run_selection`, also returning the live state (``B``'s
    gains and ``dist(·, B)``) that path refinement continues from."""
    trace = SelectionTrace()
    state = SelectionState(instance, preprocess, config, engine=engine)
    order = _UtilityOrder.of(preprocess)
    if not order.stop_list:
        raise InfeasibleRouteError("no candidate or existing stops to select from")

    seed = config.seed_stop if config.seed_stop is not None else order.stop_list[0]
    if not (instance.is_candidate[seed] or instance.is_existing[seed]):
        raise ConfigurationError(f"seed stop {seed} is not a valid stop location")
    trace.gains.append(state.marginal_gain(seed))
    state.select(seed)
    trace.selected.append(seed)

    budget = config.price_budget
    with span("selection.loop", budget=budget) as loop_span:
        while trace.total_price < budget:
            picked = _pick_most_profitable(state, order, config, trace)
            if picked is None:
                break  # every remaining stop exhausted (tiny instances)
            stop, gain, price = picked
            trace.gains.append(gain)
            trace.prices.append(price)
            state.select(stop)
            trace.selected.append(stop)
        loop_span.set(
            selected=len(trace.selected),
            evaluations=trace.evaluations,
            queue_inserts=trace.queue_inserts,
        )
    return trace, state


def _pick_most_profitable(
    state: SelectionState,
    order: _UtilityOrder,
    config: EBRRConfig,
    trace: SelectionTrace,
) -> Optional[Tuple[int, float, int]]:
    """One iteration of Algorithm 3: the stop maximizing ``ΔU/p``.

    Returns ``(stop, ΔU, price)`` or ``None`` if nothing remains.
    """
    if config.use_lazy_selection:
        return _pick_lazy(state, order, config, trace)
    pairs = list(zip(order.utilities.tolist(), order.stop_list))
    return _pick_exhaustive(state, pairs, config, trace)


def _pick_exhaustive(
    state: SelectionState,
    utility_order: Sequence[Tuple[float, int]],
    config: EBRRConfig,
    trace: SelectionTrace,
) -> Optional[Tuple[int, float, int]]:
    """The "vanilla" variant: evaluate every remaining stop.

    Threshold pruning (if enabled) still applies: stops whose initial
    utility is below the first stop's true ratio are skipped.
    """
    best: Optional[Tuple[float, int, float, int]] = None
    threshold = -math.inf
    for initial_utility, stop in utility_order:
        if stop in state.selected_set:
            continue
        if config.use_threshold_pruning and initial_utility < threshold:
            break  # utility_order is descending: everything below prunes
        gain = state.marginal_gain(stop)
        price = state.true_price(stop)
        trace.evaluations += 1
        ratio = gain / price
        if config.use_threshold_pruning and ratio > threshold:
            threshold = ratio
        # The lowest-id tie-break must fire on ratios that are equal up
        # to float noise: two stops with the same true profit can reach
        # it via different summation orders, and an exact == here would
        # make the winner depend on ulp-level drift.
        if best is None:
            best = (ratio, stop, gain, price)
        elif close(ratio, best[0]):
            if stop < best[1]:
                best = (ratio, stop, gain, price)
        elif ratio > best[0]:
            best = (ratio, stop, gain, price)
    if best is None:
        return None
    return best[1], best[2], best[3]


def _pick_lazy(
    state: SelectionState,
    order: _UtilityOrder,
    config: EBRRConfig,
    trace: SelectionTrace,
) -> Optional[Tuple[int, float, int]]:
    """The filtered queue: threshold pruning + lazy upper bounds.

    The ``RQueue`` pops entries by ``(-priority, counter)``: ``first``'s
    true entry holds counter 0, the upper-bound entries their insertion
    ranks ``1..m``, and each true re-insertion the next counter after
    ``m``.  A stable sort of the upper-bound entries by ``-priority``
    keeps equal priorities in insertion order, so walking it pops them
    as the heap would.  Popping a true entry proves it is the argmax
    (Claim 2): every remaining entry's priority — an upper bound of its
    true ratio — is no larger.  Only the smallest true entry can ever be
    popped, so it is the only one kept.
    """
    # Line 1: the threshold from the first unselected stop's true ratio.
    first = next(
        (stop for stop in order.stop_list if stop not in state.selected_set), None
    )
    if first is None:
        return None
    first_gain = state.marginal_gain(first)
    first_price = state.true_price(first)
    trace.evaluations += 1
    threshold = first_gain / first_price

    # Lines 3-6: the RQueue's upper-bound entries, in insertion order.
    # The utilities do not increase, so the pruning break leaves exactly
    # the prefix with ``U >= threshold``.
    end = len(order.stops)
    if config.use_threshold_pruning:
        end = int(np.searchsorted(-order.utilities, -threshold, side="right"))
    keep = np.isin(order.stops[:end], state.selected + [first], invert=True)
    stops = order.stops[:end][keep]
    if config.use_lower_bound_price:
        denominators = state.lower_bound.values(stops)
    else:
        denominators = np.array(
            [state.true_price(stop) for stop in stops.tolist()], dtype=np.float64
        )
    neg_priorities = -(order.utilities[:end][keep] / denominators)
    trace.queue_inserts += 1 + len(stops)

    # Lines 7-12: lazy evaluation.
    best_key, best = (-threshold, 0), (first, first_gain, first_price)
    counter = len(stops)
    stop_ids = stops.tolist()
    keys = neg_priorities.tolist()
    for rank in np.argsort(neg_priorities, kind="stable").tolist():
        if (keys[rank], rank + 1) > best_key:
            break  # the heap would pop the best true entry next
        stop = stop_ids[rank]
        gain = state.marginal_gain(stop)
        price = state.true_price(stop)
        trace.evaluations += 1
        counter += 1
        key = (-(gain / price), counter)
        if key < best_key:
            best_key, best = key, (stop, gain, price)
    return best
