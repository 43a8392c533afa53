"""repro.obs — the unified tracing + metrics substrate.

One observability surface for the whole system, replacing the four
ad-hoc mechanisms that grew alongside it (engine ``SearchStats``
snapshots, ``eval/timing`` stopwatch sinks, the perf-counter pairs in
``plan_route``, and the diagnostics report's own timing table):

* **clock** — :func:`now`, :func:`stopwatch`, :func:`timed`: the single
  monotonic timing implementation (RL008 bans raw ``perf_counter``
  elsewhere);
* **spans** — :func:`span` / :func:`traced` record hierarchical timed
  regions into the enabled :class:`Trace`, at no measurable cost while
  disabled;
* **metrics** — the per-trace :class:`MetricsRegistry` (counters,
  gauges, histograms) absorbs engine search counters so a trace carries
  the same totals as ``--profile-searches``;
* **exporters** — Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto), JSONL, and a deterministic text summary tree.

Quickstart::

    from repro import obs

    with obs.tracing() as trace:
        result = plan_route(instance, config)
    obs.write_chrome_trace(trace, "plan.json")   # open in Perfetto
    print(obs.summarize(trace.spans, trace.metrics.as_dict()))
"""

from .clock import now, stopwatch, timed
from .export import (
    chrome_trace,
    load_chrome_trace,
    load_jsonl,
    summarize,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import SEARCH_STAT_FIELDS, Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    NULL_SPAN,
    PLAN_PHASES,
    LiveSpan,
    Span,
    Trace,
    current_trace,
    disable,
    enable,
    extract_run,
    iter_tree,
    phase_timings,
    span,
    traced,
    tracing,
)

__all__ = [
    "now",
    "stopwatch",
    "timed",
    "Span",
    "LiveSpan",
    "Trace",
    "span",
    "traced",
    "tracing",
    "enable",
    "disable",
    "current_trace",
    "extract_run",
    "phase_timings",
    "iter_tree",
    "NULL_SPAN",
    "PLAN_PHASES",
    "SEARCH_STAT_FIELDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "load_chrome_trace",
    "load_jsonl",
    "validate_chrome_trace",
    "summarize",
]
