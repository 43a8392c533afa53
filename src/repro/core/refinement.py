"""Path refinement — Algorithm 5 of the paper.

Turns the Christofides visiting order into a concrete bus route:

1. for every pair of adjacent profitable stops whose connecting cost
   exceeds ``C``, walk the road shortest path between them and insert
   the necessary intermediate stops — greedily committing, at each
   step, the *farthest* eligible stop location whose cost from the
   previous stop stays at most ``C`` (line 4 of Algorithm 5);
2. add or delete terminal stops until the stop count matches ``K``
   (line 5).  Deletion removes the terminal stop with the smaller
   marginal utility; addition extends whichever end offers the best
   eligible stop within cost ``C``, preferring utility gain.

The function mutates nothing: it takes the selection state (for cheap
marginal-gain evaluations) and returns the final ordered stop list plus
the full road path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..exceptions import InfeasibleRouteError
from ..obs import span
from .config import EBRRConfig
from .selection import SelectionState

_EPSILON = 1e-9


def refine_path(
    state: SelectionState,
    order: Sequence[int],
    config: EBRRConfig,
) -> Tuple[List[int], List[int]]:
    """Run Algorithm 5.

    Args:
        state: the post-selection state (used for marginal gains and
            stop-eligibility masks; intermediate/terminal additions are
            committed into it so later gains stay correct).
        order: the Christofides visiting order of the profitable stops.
        config: the EBRR configuration (``K``, ``C``).

    Returns:
        ``(stops, path)`` — the final ordered stop list (``|stops| <= K``,
        adjacent costs ``<= C``) and the road node path through them.

    Raises:
        InfeasibleRouteError: if ``order`` is empty.  A leg with no
            eligible stop within ``C`` along it (an edge longer than
            ``C``, or a sparse ``S_new``) is kept whole instead, and the
            driver records the violation on the final route.
    """
    if not order:
        raise InfeasibleRouteError("cannot refine an empty visiting order")
    c = config.max_adjacent_cost

    with span("refinement.refine", order=len(order)) as refine_span:
        stops: List[int] = [order[0]]
        used: Set[int] = {order[0]}
        segments: List[List[int]] = []  # road path per consecutive stop pair

        for target in order[1:]:
            if target in used:
                continue
            leg_stops, leg_segments = _link(state, stops[-1], target, used, c)
            for stop in leg_stops:
                _commit(state, stop)
                used.add(stop)
            stops.extend(leg_stops)
            segments.extend(leg_segments)

        stops, segments = _match_stop_count(state, stops, segments, used, config)
        path = _stitch(segments, stops)
        refine_span.set(stops=len(stops), path_nodes=len(path))
    return stops, path


# ----------------------------------------------------------------------
# Linking adjacent profitable stops (lines 1-4)
# ----------------------------------------------------------------------


def _link(
    state: SelectionState,
    source: int,
    target: int,
    used: Set[int],
    max_cost: float,
) -> Tuple[List[int], List[List[int]]]:
    """Stops (intermediates + ``target``) and road segments linking
    ``source`` to ``target`` with every leg at most ``max_cost``."""
    road_path, total = state.engine.path(source, target, phase="refinement")
    if total <= max_cost + _EPSILON:
        return [target], [road_path]

    network = state.instance.network
    eligible = _eligibility(state, used)
    # Prefix costs along the road path.
    prefix = [0.0]
    for i in range(1, len(road_path)):
        prefix.append(prefix[-1] + network.edge_cost(road_path[i - 1], road_path[i]))

    stops: List[int] = []
    segments: List[List[int]] = []
    anchor = 0  # index in road_path of the previous committed stop
    while prefix[-1] - prefix[anchor] > max_cost + _EPSILON:
        # Farthest eligible node within max_cost of the anchor.
        best: Optional[int] = None
        for i in range(anchor + 1, len(road_path)):
            if prefix[i] - prefix[anchor] > max_cost + _EPSILON:
                break
            node = road_path[i]
            if eligible(node):
                best = i
        if best is None:
            # No eligible stop within max_cost of the anchor: the next
            # road edge is longer than max_cost, or the nodes in reach
            # are used or not in S_new.  Emit the rest of the leg
            # as-is; the driver records the C violation on the final
            # route instead of failing the whole plan.
            break
        stops.append(road_path[best])
        segments.append(road_path[anchor : best + 1])
        used.add(road_path[best])
        anchor = best
    stops.append(target)
    segments.append(road_path[anchor:])
    return stops, segments


def _eligibility(state: SelectionState, used: Set[int]):
    instance = state.instance
    return lambda node: (
        node not in used
        and (instance.is_candidate[node] or instance.is_existing[node])
    )


def _commit(state: SelectionState, stop: int) -> None:
    """Fold a refinement-added stop into the incremental state so later
    marginal gains account for it."""
    if stop not in state.selected_set:
        state.select(stop)


# ----------------------------------------------------------------------
# Matching |B| to K (line 5)
# ----------------------------------------------------------------------


def _match_stop_count(
    state: SelectionState,
    stops: List[int],
    segments: List[List[int]],
    used: Set[int],
    config: EBRRConfig,
) -> Tuple[List[int], List[List[int]]]:
    k = config.max_stops
    # Too many stops: drop terminals (paper: "add or delete terminal
    # stops"); drop the end whose terminal contributes least utility.
    while len(stops) > k:
        head_gain = _terminal_contribution(state, stops[0])
        tail_gain = _terminal_contribution(state, stops[-1])
        if head_gain <= tail_gain:
            stops.pop(0)
            if segments:
                segments.pop(0)
        else:
            stops.pop()
            if segments:
                segments.pop()
    # Too few: greedily extend the ends while eligible stops with the
    # best gains exist within C.
    while len(stops) < k:
        extension = _best_terminal_extension(state, stops, used, config)
        if extension is None:
            break
        end, stop, road_segment = extension
        _commit(state, stop)
        used.add(stop)
        if end == "tail":
            stops.append(stop)
            segments.append(road_segment)
        else:
            stops.insert(0, stop)
            segments.insert(0, road_segment)
    return stops, segments


def _terminal_contribution(state: SelectionState, stop: int) -> float:
    """Utility a terminal stop contributes: its route-mask exclusivity
    (for existing stops) or its retained walking gain (for candidates).

    Approximated by the stop's *initial* utility — exact re-evaluation
    of removals would need full recomputation, and terminals are the
    least-consequential stops by construction.
    """
    return state.preprocess.initial_utility.get(stop, 0.0)


def _best_terminal_extension(
    state: SelectionState,
    stops: List[int],
    used: Set[int],
    config: EBRRConfig,
) -> Optional[Tuple[str, int, List[int]]]:
    """Best eligible stop within ``C`` of either terminal.

    Returns ``(end, stop, road_segment)`` with ``end`` in
    ``{"head", "tail"}``, the segment oriented from the terminal toward
    the new stop for the tail and already reversed for the head, or
    ``None`` if no eligible node is reachable within ``C`` from either
    end.
    """
    eligible = _eligibility(state, used)
    options: List[Tuple[str, int]] = []
    for end, terminal in (("head", stops[0]), ("tail", stops[-1])):
        reachable = state.engine.nodes_within(
            terminal, config.max_adjacent_cost, phase="refinement"
        )
        options.extend((end, node) for node, _dist in reachable if eligible(node))
    if not options:
        return None
    # The first option with the largest gain, as a strict-">" scan
    # over the options would keep.
    gains = state.marginal_gains([node for _end, node in options])
    end, node = options[int(np.argmax(gains))]
    terminal = stops[0] if end == "head" else stops[-1]
    road_path, _cost = state.engine.path(terminal, node, phase="refinement")
    if end == "head":
        road_path = list(reversed(road_path))
    return end, node, road_path


# ----------------------------------------------------------------------
# Path assembly
# ----------------------------------------------------------------------


def _stitch(segments: List[List[int]], stops: List[int]) -> List[int]:
    """Concatenate road segments into one node path covering ``stops``.

    Deletions in :func:`_match_stop_count` may have desynchronized the
    segment list from the stop list, so the path is rebuilt segment by
    segment only where consistent; otherwise the stop sequence itself
    (each consecutive pair re-linked by the caller's road network) is
    the minimal valid representation.  In practice segments and stops
    stay aligned except after terminal deletion, which drops the
    matching terminal segment too, so simple concatenation applies.
    """
    if not stops:
        return []
    if not segments:
        return list(stops)
    path: List[int] = [segments[0][0]] if segments[0] else [stops[0]]
    for segment in segments:
        if not segment:
            continue
        if path and segment[0] == path[-1]:
            path.extend(segment[1:])
        else:
            path.extend(segment)
    # Guarantee terminals are the first/last stops after any trimming.
    first, last = stops[0], stops[-1]
    if first in path and path.index(first) > 0:
        path = path[path.index(first):]
    if last in path:
        last_idx = len(path) - 1 - path[::-1].index(last)
        path = path[: last_idx + 1]
    return path
