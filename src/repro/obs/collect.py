"""Cross-process span collection: the worker ↔ parent trace contract.

The parallel substrate (:func:`repro.parallel.sweep.sweep_plans`) runs
whole plans in pool processes.  Mirroring how each worker's
``SearchStats`` travel back for :meth:`SearchEngine.absorb`, each worker
also ships its *spans* and *metric deltas* home, so a 4-worker sweep
yields one coherent trace:

* the pool initializer calls :func:`begin_worker_trace`, installing a
  fresh enabled trace whose lane is ``worker-<pid>`` (a fork-started
  child would otherwise inherit — and corrupt — the parent's buffer);
* after each task the worker calls :func:`drain_shard`, harvesting the
  spans recorded since the previous drain (rebased to be
  self-contained) plus the metrics accumulated so far, into a picklable
  :class:`TraceShard` returned with the task result;
* the parent calls :func:`merge_shard` on its enabled trace, appending
  the shard's spans (re-indexed, optionally parented under the parent's
  ``sweep`` span) and folding its metrics.

Timestamps are *not* rebased: :mod:`repro.obs.clock` reads the
system-wide monotonic clock, so parent and worker readings share a
timebase and worker spans land at their true position on the timeline.

Drains must happen at span-tree boundaries (no span still open); the
sweep's worker entry point guarantees this by draining only between
tasks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry
from .trace import Span, Trace, current_trace, enable, set_default_lane


@dataclass
class TraceShard:
    """One worker's picklable trace contribution.

    Attributes:
        lane: the worker's lane label (``worker-<pid>``).
        spans: self-contained span list (indices from 0, parents
            internal or ``None``).
        metrics: :meth:`MetricsRegistry.as_dict` snapshot of the
            metrics *delta* since the previous drain.
    """

    lane: str
    spans: List[Span] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)


# Worker-process drain state: index of the first not-yet-shipped span,
# and the last metrics snapshot shipped (for delta computation).
_DRAIN_MARK = 0
_SHIPPED_METRICS: Optional[MetricsRegistry] = None


def worker_lane() -> str:
    """The lane label for this process."""
    return f"worker-{os.getpid()}"


def begin_worker_trace() -> Trace:
    """Install a fresh enabled trace for a pool worker process and
    return it.  Safe under both ``fork`` (discards the inherited parent
    buffer) and ``spawn`` (nothing inherited)."""
    global _DRAIN_MARK, _SHIPPED_METRICS
    lane = worker_lane()
    set_default_lane(lane)
    trace = enable(Trace(lane=lane))
    _DRAIN_MARK = 0
    _SHIPPED_METRICS = MetricsRegistry()
    return trace


def drain_shard() -> Optional[TraceShard]:
    """Harvest everything recorded since the last drain into a shard;
    ``None`` when no worker trace is enabled (tracing-off runs ship
    nothing).  Must be called at a span-tree boundary."""
    trace = current_trace()
    if trace is None:
        return None
    global _DRAIN_MARK, _SHIPPED_METRICS
    if trace.open_depth():
        raise RuntimeError(
            "drain_shard called with spans still open; drain only "
            "between tasks"
        )
    mark = _DRAIN_MARK
    spans: List[Span] = []
    for span in trace.spans[mark:]:
        parent = span.parent
        spans.append(
            replace(
                span,
                index=span.index - mark,
                parent=parent - mark
                if parent is not None and parent >= mark
                else None,
                attrs=dict(span.attrs),
            )
        )
    _DRAIN_MARK = len(trace.spans)

    shipped = _SHIPPED_METRICS if _SHIPPED_METRICS is not None else MetricsRegistry()
    delta = MetricsRegistry()
    delta.merge(trace.metrics)
    for name, counter in shipped.counters.items():
        delta.counter(name).value -= counter.value
    delta.counters = {
        name: counter
        for name, counter in delta.counters.items()
        if counter.value
    }
    for name, histogram in shipped.histograms.items():
        mine = delta.histogram(name)
        mine.count -= histogram.count
        mine.total -= histogram.total
    delta.histograms = {
        name: histogram
        for name, histogram in delta.histograms.items()
        if histogram.count
    }
    snapshot = MetricsRegistry()
    snapshot.merge(trace.metrics)
    _SHIPPED_METRICS = snapshot
    return TraceShard(lane=trace.lane, spans=spans, metrics=delta.as_dict())


def merge_shard(
    trace: Trace, shard: TraceShard, *, parent: Optional[int] = None
) -> None:
    """Append a worker shard to ``trace``: spans re-indexed onto the end
    of the buffer (shard roots adopted by ``parent`` when given, so the
    worker's work hangs under the parent's fan-out span in the tree
    view while staying in its own lane on the timeline), metrics folded
    per :meth:`MetricsRegistry.merge` semantics."""
    offset = len(trace.spans)
    for span in shard.spans:
        trace.spans.append(
            replace(
                span,
                index=span.index + offset,
                parent=span.parent + offset if span.parent is not None else parent,
                lane=shard.lane,
                attrs=dict(span.attrs),
            )
        )
    trace.metrics.merge(MetricsRegistry.from_dict(shard.metrics))
