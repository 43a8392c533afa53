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

Marginal gains come from the preprocessing RNN table (exact — see
:mod:`repro.core.preprocess`), marginal connectivity from the transit
bitmasks, and the true price from the incrementally maintained
nearest-distance-to-``B`` array; so a "function evaluation" here is
cheap, but the *number* of evaluations is still the ablation metric and
is counted in the trace.

Evaluations run in batches.  :class:`SelectionState` keeps every table
entry's current gain term ``count(q) · (d_cur(q) − d)`` (``+0.0`` once
``d_cur(q) <= d``) and rewrites only the terms of queries a selection
brought closer, so a stop's ``ΔU`` is one ``np.add.accumulate`` over its
row — the same left fold, bit for bit, as summing the positive terms in
row order, because adding ``+0.0`` leaves a non-negative sum unchanged
— and its price is one array expression over ``dist(·, B)``.

The ``RQueue`` is built from arrays, not pushed entry by entry: per
pick, one ``searchsorted`` cuts the threshold prefix of the utility
order, one pass computes its upper-bound priorities, and one stable
``argsort`` yields the order a heap keyed ``(-priority, insertion
counter)`` would pop them in.  That order is evaluated in growing
chunks and walked entry by entry with the heap's pop rule, so a pick
costs a few numpy passes plus one fold per evaluated stop; only the
walked entries count as evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, InfeasibleRouteError
from ..network.engine import SearchEngine, engine_for
from ..obs import span
from .config import EBRRConfig
from .numeric import close
from .preprocess import PreprocessResult, UtilityOrder, fold_rows
from .price import LowerBoundPrice, prices_from_distances
from .utility import BRRInstance

#: Entries a pick evaluates in its first batch when the previous pick
#: walked fewer; each later batch of the same pick doubles.
_FIRST_CHUNK = 16


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

    * ``nearest[q]`` — per node, each query node's distance to its
      nearest stop in ``S_existing ∪ B`` (starts at ``dist(q, nn(q))``;
      ``inf`` at nodes that hold no query);
    * the gain term of every RNN table entry, ``count(q) ·
      (nearest[q] − d)`` where ``nearest[q] > d`` and ``+0.0``
      elsewhere — a copy of the preprocessing's terms, rewritten only
      for the queries a selection brings closer;
    * ``covered_mask`` — the union route bitmask of ``B``, and from it
      each existing stop's gain, ``α`` times its routes outside the
      mask, computed when first read and again after an existing stop
      joining ``B`` covers one of its routes;
    * ``dist_to_b`` — network distance from every node to ``B``, the
      minimum of the selected stops' cached SSSP rows, feeding the true
      price.  A stop's row is folded in when a price is next read, so
      the stops refinement commits and the last pick cost no search;
    * the Algorithm 4 lower-bound price structure;
    * ``last_walk`` — how many entries the previous pick evaluated,
      the size of the next pick's first evaluation batch.
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
        self.nearest = preprocess.nearest.copy()
        self._terms = preprocess.terms.copy()
        self._existing = np.asarray(instance.is_existing, dtype=bool)
        self.covered_mask: int = 0
        self._connectivity = np.full(len(self._existing), np.nan)
        self.selected: List[int] = []
        self.selected_set: set = set()
        self.last_walk = 0
        self.dist_to_b = self.engine.incremental_nearest(phase="selection")
        self.lower_bound = LowerBoundPrice(
            self.engine.csr.np_coords, config.max_adjacent_cost
        )

    # -- true function evaluations -------------------------------------

    def marginal_gains(self, stops: Sequence[int]) -> np.ndarray:
        """``ΔU_B(v)`` for each of ``stops`` (float64) — exact: the
        left fold of a candidate's current terms, or ``α`` times the
        routes of an existing stop that ``B`` does not cover yet."""
        stops = np.asarray(stops, dtype=np.int64)
        gains = fold_rows(self._terms, self.preprocess.table.indptr, stops)
        existing = self._existing[stops]
        if existing.any():
            connectivity = self._connectivity
            stale = stops[existing & np.isnan(connectivity[stops])]
            if stale.size:
                transit, covered = self.instance.transit, self.covered_mask
                connectivity[stale] = [
                    self.instance.alpha * transit.marginal_connectivity(stop, covered)
                    for stop in stale.tolist()
                ]
            gains[existing] = connectivity[stops[existing]]
        return gains

    def true_prices(self, stops: Sequence[int]) -> np.ndarray:
        """``p(v, B)`` for each of ``stops`` (int64) from the maintained
        network distance to ``B``; ``0`` marks a stop that cannot reach
        ``B`` (see :func:`unreachable`)."""
        return prices_from_distances(
            self.dist_to_b.distance[np.asarray(stops, dtype=np.int64)],
            self.config.max_adjacent_cost,
        )

    def marginal_gain(self, stop: int) -> float:
        """``ΔU_B(stop)``: :meth:`marginal_gains` for one stop."""
        return float(self.marginal_gains([stop])[0])

    def true_price(self, stop: int) -> int:
        """``p(stop, B)``: :meth:`true_prices` for one stop.

        Raises:
            InfeasibleRouteError: if ``stop`` cannot reach ``B``.
        """
        price = int(self.true_prices([stop])[0])
        if not price:
            raise unreachable(stop)
        return price

    # -- mutation --------------------------------------------------------

    def select(self, stop: int) -> None:
        """Commit ``stop`` to ``B`` and update all incremental state."""
        if stop in self.selected_set:
            raise ConfigurationError(f"stop {stop} already selected")
        instance = self.instance
        if instance.is_existing[stop]:
            transit = instance.transit
            fresh = transit.route_mask(stop) & ~self.covered_mask
            self.covered_mask |= fresh
            for route in range(fresh.bit_length()):
                if fresh >> route & 1:
                    self._connectivity[list(transit.route(route).stops)] = np.nan
        else:
            self._bring_closer(stop)
        self.selected.append(stop)
        self.selected_set.add(stop)
        self.dist_to_b.add_source(stop)
        self.lower_bound.add_selected(stop)

    def _bring_closer(self, stop: int) -> None:
        """Lower ``nearest`` for the queries of ``RNN(stop)`` that
        ``stop`` is closer to, then rewrite every table term of those
        queries (a query holds one entry per candidate, so the row's
        updates never collide)."""
        pre = self.preprocess
        table = pre.table
        start, end = int(table.indptr[stop]), int(table.indptr[stop + 1])
        queries, dists = table.queries[start:end], table.dists[start:end]
        closer = dists < self.nearest[queries]
        if not closer.any():
            return
        moved = queries[closer]
        self.nearest[moved] = dists[closer]
        entries = pre.entries_of(moved)
        owners = table.queries[entries]
        current = self.nearest[owners]
        dists = table.dists[entries]
        self._terms[entries] = np.where(
            current > dists, pre.weights[owners] * (current - dists), 0.0
        )


def unreachable(stop: int) -> InfeasibleRouteError:
    """The error for a stop whose true price is undefined: no path
    joins it to the selected set."""
    return InfeasibleRouteError(
        f"stop {stop} cannot reach the selected set — disconnected network"
    )


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
    order = preprocess.utility_order
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
    order: UtilityOrder,
    config: EBRRConfig,
    trace: SelectionTrace,
) -> Optional[Tuple[int, float, int]]:
    """One iteration of Algorithm 3: the stop maximizing ``ΔU/p``.

    Returns ``(stop, ΔU, price)`` or ``None`` if nothing remains.
    """
    if config.use_lazy_selection:
        return _pick_lazy(state, order, config, trace)
    return _pick_exhaustive(state, order, config, trace)


def _walk(
    state: SelectionState,
    stops: np.ndarray,
    columns: Sequence[np.ndarray],
    size: int,
    limit: Callable[[], int],
) -> Iterator[tuple]:
    """Evaluate ``stops`` in order, in batches: yield
    ``(stop, gain, price, *column values)`` per stop, as python
    numbers.  The first batch holds ``size`` stops and each later one
    twice the last, and a batch also ends at index ``limit()``, read
    when it begins.  The caller's walk breaks at or before that index
    (its bound only tightens as it walks), so the stops it never
    reaches cost at most one batch, and a price of ``0`` — a stop that
    cannot reach ``B`` — matters only if the walk reaches it."""
    pos = 0
    while pos < stops.size:
        end = min(pos + size, limit())
        if end <= pos:
            return
        chunk = stops[pos:end]
        yield from zip(
            chunk.tolist(),
            state.marginal_gains(chunk).tolist(),
            state.true_prices(chunk).tolist(),
            *(column[pos:end].tolist() for column in columns),
        )
        pos, size = end, 2 * size


def _pick_exhaustive(
    state: SelectionState,
    order: UtilityOrder,
    config: EBRRConfig,
    trace: SelectionTrace,
) -> Optional[Tuple[int, float, int]]:
    """The "vanilla" variant: evaluate every remaining stop.

    Threshold pruning (if enabled) still applies: stops whose initial
    utility is below the best true ratio so far are skipped.  Without
    it every remaining stop is one batch; with it the batches grow
    from the previous pick's walk, and a batch stops at the first
    utility below the threshold as it stood when the batch began (the
    threshold only rises, so the walk breaks there or earlier).
    """
    keep = np.isin(order.stops, state.selected, invert=True)
    stops, utilities = order.stops[keep], order.utilities[keep]
    pruning = config.use_threshold_pruning
    best: Optional[Tuple[float, int, float, int]] = None
    threshold = -math.inf
    neg_utilities = -utilities
    walked = 0
    for stop, gain, price, initial_utility in _walk(
        state,
        stops,
        (utilities,),
        max(_FIRST_CHUNK, state.last_walk) if pruning else stops.size,
        lambda: int(np.searchsorted(neg_utilities, -threshold, "right")),
    ):
        if pruning and initial_utility < threshold:
            break  # the order is descending: everything below prunes
        if not price:
            raise unreachable(stop)
        trace.evaluations += 1
        walked += 1
        ratio = gain / price
        if pruning and ratio > threshold:
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
    state.last_walk = walked
    if best is None:
        return None
    return best[1], best[2], best[3]


def _pick_lazy(
    state: SelectionState,
    order: UtilityOrder,
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
        prices = state.true_prices(stops)
        if not prices.all():
            raise unreachable(int(stops[np.argmin(prices)]))
        denominators = prices.astype(np.float64)
    neg_priorities = -(order.utilities[:end][keep] / denominators)
    trace.queue_inserts += 1 + len(stops)

    # Lines 7-12: lazy evaluation, walked in the heap's pop order.
    best_key, best = (-threshold, 0), (first, first_gain, first_price)
    counter = len(stops)
    ranked = np.argsort(neg_priorities, kind="stable")
    ranked_keys = neg_priorities[ranked]
    walked = 0
    for stop, gain, price, priority_key, rank in _walk(
        state,
        stops[ranked],
        (ranked_keys, ranked),
        max(_FIRST_CHUNK, state.last_walk),
        lambda: int(np.searchsorted(ranked_keys, best_key[0], "right")),
    ):
        if (priority_key, rank + 1) > best_key:
            break  # the heap would pop the best true entry next
        if not price:
            raise unreachable(stop)
        trace.evaluations += 1
        walked += 1
        counter += 1
        key = (-(gain / price), counter)
        if key < best_key:
            best_key, best = key, (stop, gain, price)
    state.last_walk = walked
    return best
