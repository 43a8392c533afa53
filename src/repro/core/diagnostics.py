"""Run diagnostics: explain one EBRR result as a text report.

Planners tune ``K``, ``C``, and ``α`` iteratively (the paper's whole
efficiency pitch); a readable account of *what the algorithm did* makes
each iteration informative.  :func:`explain_result` renders a full
report: the selection trace (stop, kind, gain, price, ratio), the phase
timings, the constraint audit, and the theoretical-guarantee context of
Theorems 3/4.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs import PLAN_PHASES, phase_timings
from .bounds import approximation_bound, audit_stop_budget
from .result import EBRRResult
from .utility import BRRInstance


def trace_phase_timings(result: EBRRResult) -> Dict[str, float]:
    """Per-phase seconds sourced from the run's trace spans.

    The report used to keep its own timing sink, which could drift from
    what ``--trace`` exported; both now read the same measured spans.
    Falls back to ``result.timings`` for results built without spans
    (e.g. deserialized from an older run).
    """
    if result.spans:
        return phase_timings(result.spans)
    return dict(result.timings)


def selection_table(instance: BRRInstance, result: EBRRResult) -> List[dict]:
    """One row per selected stop: kind, marginal gain, price, ratio."""
    rows: List[dict] = []
    trace = result.trace
    for index, stop in enumerate(trace.selected):
        gain = trace.gains[index] if index < len(trace.gains) else float("nan")
        price: Optional[int] = (
            trace.prices[index - 1] if 1 <= index <= len(trace.prices) else None
        )
        rows.append(
            {
                "iter": index,
                "stop": stop,
                "kind": "existing" if instance.is_existing[stop] else "new",
                "gain": gain,
                "price": price if price is not None else "-",
                "ratio": (gain / price) if price else "-",
            }
        )
    return rows


def search_stats_table(result: EBRRResult) -> str:
    """The per-phase search-profile block (one line per phase plus a
    total), rendering the run's :attr:`EBRRResult.search_stats`."""
    lines: List[str] = ["search profile (per phase):"]
    header = (
        f"  {'phase':<11} {'searches':>9} {'cache hits':>11} "
        f"{'settled':>9} {'pushes':>9}"
    )
    lines.append(header)
    for phase, stats in result.search_stats.items():
        lines.append(
            f"  {phase:<11} {stats.searches:>9} {stats.cache_hits:>11} "
            f"{stats.settled:>9} {stats.pushes:>9}"
        )
    total = result.total_search_stats
    lines.append(
        f"  {'total':<11} {total.searches:>9} {total.cache_hits:>11} "
        f"{total.settled:>9} {total.pushes:>9}"
    )
    return "\n".join(lines)


def explain_result(instance: BRRInstance, result: EBRRResult) -> str:
    """A multi-section plain-text explanation of one run."""
    from ..eval.reporting import format_table

    config = result.config
    metrics = result.metrics
    lines: List[str] = []

    lines.append("=== EBRR run report ===")
    lines.append(
        f"instance: |V|={instance.network.num_nodes}, "
        f"|S_existing|={len(instance.existing_stops)}, "
        f"|S_new|={len(instance.candidates)}, |Q|={len(instance.queries)}"
    )
    lines.append(
        f"config: K={config.max_stops}, C={config.max_adjacent_cost}, "
        f"alpha={config.alpha:g}, budget=2K/3={config.price_budget:.2f}"
    )
    lines.append("")

    lines.append(
        format_table(
            selection_table(instance, result),
            ["iter", "stop", "kind", "gain", "price", "ratio"],
            title=f"selection trace (total price {result.trace.total_price}, "
            f"{result.trace.evaluations} evaluations)",
            float_digits=2,
        )
    )
    lines.append("")

    timings = trace_phase_timings(result)
    share = {phase: timings.get(phase, 0.0) for phase in PLAN_PHASES}
    total = max(timings.get("total", 0.0), 1e-12)
    lines.append("phase timings (from trace spans):")
    for phase, seconds in share.items():
        lines.append(
            f"  {phase:<11} {seconds:8.4f}s  ({100 * seconds / total:5.1f}%)"
        )
    lines.append(f"  {'total':<11} {total:8.4f}s")
    lines.append("")

    if result.search_stats:
        lines.append(search_stats_table(result))
        lines.append("")

    lines.append(
        f"route: {metrics.num_stops} stops, {metrics.route_length:.2f} km, "
        f"utility {metrics.utility:,.2f} "
        f"(walk decrease {metrics.walk_decrease:,.2f} + "
        f"{config.alpha:g} x {metrics.connectivity} connectivity)"
    )
    if result.is_feasible:
        lines.append("constraints: satisfied (K and C)")
    else:
        lines.append("constraints: VIOLATED")
        for violation in result.constraint_violations:
            lines.append(f"  - {violation}")
    lines.append(
        "Theorem 3 budget audit: "
        + ("ok" if audit_stop_budget(result) else "VIOLATED")
    )
    bound = approximation_bound(instance.network, config.max_adjacent_cost)
    lines.append(
        f"Theorem 4 guarantee for this instance: >= {bound.ratio:.4f} of "
        f"optimal (diameter bound {bound.diameter:.1f} km; the empirical "
        "ratio is typically near 1 — see Fig. 11a)"
    )
    return "\n".join(lines)
