"""The EBRR driver — Algorithm 1 of the paper.

Pipeline::

    preprocess (Alg. 2)  →  greedy selection (Alg. 3 + 4)
        →  Christofides ordering  →  path refinement (Alg. 5)

:func:`plan_route` wires the phases together, times each one, assembles
the final :class:`~repro.transit.route.BusRoute`, evaluates its exact
metrics, and records any Definition 8 constraint violation: a leg
longer than C that refinement could not split, because no eligible
stop lies within C along it (C below the road edges' costs, or a
sparse ``S_new``), or any long leg when refinement is disabled for the
ablation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..exceptions import InfeasibleRouteError
from ..network.engine import KERNEL_IDS, SearchEngine, engine_for
from ..obs import Trace, current_trace, extract_run, phase_timings
from ..transit.route import BusRoute
from .christofides import christofides_order
from .config import EBRRConfig
from .preprocess import PreprocessResult, preprocess_queries
from .refinement import refine_path
from .result import EBRRResult, RouteMetrics
from .selection import _select_with_state
from .utility import BRRInstance


def plan_route(
    instance: BRRInstance,
    config: EBRRConfig,
    *,
    preprocess: Optional[PreprocessResult] = None,
    route_id: str = "ebrr",
    engine: Optional[SearchEngine] = None,
) -> EBRRResult:
    """Plan a new bus route with EBRR.

    Args:
        instance: the BRR problem instance.  Its ``alpha`` must match
            ``config.alpha`` (the config value wins; a mismatch raises).
        config: problem parameters and algorithm switches.
        preprocess: a precomputed Algorithm 2 result to reuse across
            runs that share the instance (e.g. a K sweep); computed on
            the fly when omitted.
        route_id: identifier for the returned route.
        engine: the search engine all phases run their graph searches
            on; defaults to the network's shared engine, so repeated
            runs on the same network reuse cached distance rows and
            paths.  The result's ``search_stats`` reports this run's
            per-phase counters regardless of sharing.

    Returns:
        The :class:`EBRRResult` with the route, exact metrics, selection
        trace, per-phase timings, and per-phase search statistics.
    """
    if abs(instance.alpha - config.alpha) > 1e-12:
        raise InfeasibleRouteError(
            f"instance.alpha={instance.alpha} disagrees with "
            f"config.alpha={config.alpha}; build the instance with the "
            "same alpha"
        )
    if engine is None:
        engine = engine_for(instance.network)
    stats_base = engine.snapshot()

    # All phases run under trace spans; the timings dict is *derived*
    # from the measured spans afterwards (one clock pair per phase — the
    # diagnostics report and a trace export cannot disagree).  When no
    # global trace is enabled the spans land in a private per-run
    # buffer, kept on the result either way.
    obs_trace = current_trace()
    if obs_trace is None:
        obs_trace = Trace()
    run_base = len(obs_trace.spans)
    with obs_trace.begin(
        "plan_route",
        {
            "route_id": route_id,
            "K": config.max_stops,
            "C": config.max_adjacent_cost,
            "alpha": config.alpha,
        },
    ):
        # Line 1: preprocessing.
        with obs_trace.begin("preprocess", {"reused": preprocess is not None}):
            if preprocess is None:
                preprocess = preprocess_queries(instance, engine=engine)

        # Lines 2-7: greedy selection; refinement continues from its
        # live state.
        with obs_trace.begin("selection") as selection_span:
            trace, state = _select_with_state(instance, preprocess, config, engine)
            selection_span.set(
                selected=len(trace.selected), evaluations=trace.evaluations
            )

        # Line 8: Christofides visiting order.
        with obs_trace.begin("ordering", {"stops": len(trace.selected)}):
            order = _order_stops(trace.selected, config, engine)

        # Line 9: path refinement (or the bare order for the ablation).
        with obs_trace.begin("refinement", {"refine": config.refine_path}):
            if config.refine_path:
                stops, path = refine_path(state, order, config)
            else:
                stops, path = _bare_route(engine, order)

        route = BusRoute(route_id, stops, path)
    run_spans = extract_run(obs_trace, run_base)
    timings = phase_timings(run_spans)
    metrics = evaluate_route(instance, route)
    violations = _constraint_violations(instance, route, config)
    search_stats = engine.stats_since(stats_base)
    active = current_trace()
    if active is not None:
        active.metrics.absorb_search_profile(search_stats)
        # Which backend ran the searches, as a stable numeric id (gauges
        # are floats); KERNEL_IDS maps it back to the name.
        active.metrics.gauge("search.kernel").set(
            KERNEL_IDS[engine.kernel_name]
        )
    return EBRRResult(
        route=route,
        metrics=metrics,
        trace=trace,
        timings=timings,
        config=config,
        constraint_violations=violations,
        search_stats=search_stats,
        spans=run_spans,
    )


def evaluate_route(instance: BRRInstance, route: BusRoute) -> RouteMetrics:
    """Exact quality metrics of a route on ``instance`` (works for
    baseline routes too — this is the common yardstick of Section VI)."""
    stops = list(route.stops)
    walk_decrease = instance.walk_decrease(s for s in stops if instance.is_candidate[s])
    connectivity = instance.connectivity(stops)
    utility = walk_decrease + instance.alpha * connectivity
    walk_cost = instance.baseline_walk() - walk_decrease
    length = route.length(instance.network) if len(route.path) > 1 else 0.0
    return RouteMetrics(
        utility=utility,
        walk_cost=walk_cost,
        walk_decrease=walk_decrease,
        connectivity=connectivity,
        num_stops=route.num_stops,
        route_length=length,
    )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _order_stops(
    selected: Sequence[int],
    config: EBRRConfig,
    engine: SearchEngine,
) -> List[int]:
    """Pairwise network distances between selected stops, then the
    Christofides open-path order.

    Each stop's full SSSP row goes through the engine's cache, so a K
    sweep over the same instance recomputes only the rows of stops that
    were not selected in an earlier run.
    """
    if len(selected) <= 2:
        return list(selected)
    matrix: List[List[float]] = []
    for stop in selected:
        costs = engine.sssp(stop, phase="ordering")
        matrix.append([costs[other] for other in selected])
    return christofides_order(list(selected), matrix, config.max_adjacent_cost)


def _bare_route(
    engine: SearchEngine, order: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """The unrefined route: the visiting order itself, linked by road
    shortest paths (no intermediate stops, no K padding)."""
    stops = list(dict.fromkeys(order))
    if not stops:
        raise InfeasibleRouteError("empty visiting order")
    path: List[int] = [stops[0]]
    for a, b in zip(stops, stops[1:]):
        leg, _ = engine.path(a, b, phase="refinement")
        path.extend(leg[1:])
    # Drop stops the stitched path happens to miss the ordering of (a
    # later leg may pass through an earlier stop; keep the valid ones).
    return stops, path


def _constraint_violations(
    instance: BRRInstance, route: BusRoute, config: EBRRConfig
) -> List[str]:
    violations: List[str] = []
    if route.num_stops > config.max_stops:
        violations.append(
            f"stop count {route.num_stops} exceeds K={config.max_stops}"
        )
    costs = route.adjacent_stop_costs(instance.network)
    for i, cost in enumerate(costs):
        if cost > config.max_adjacent_cost + 1e-9:
            violations.append(
                f"adjacent stops {route.stops[i]}->{route.stops[i + 1]} cost "
                f"{cost:.3f} exceeds C={config.max_adjacent_cost}"
            )
    return violations
