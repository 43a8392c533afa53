"""Trace exporters: Chrome trace-event JSON, JSONL, and a text summary.

The Chrome format is the `trace-event` JSON object form — open the file
in ``chrome://tracing`` or https://ui.perfetto.dev to get a zoomable
timeline with one track per lane.  Spans are complete ("X")
events in microseconds; the span/parent buffer indices ride along in
``args`` so :func:`load_chrome_trace` can rebuild the exact tree (and
``repro trace summarize`` can re-render it) without interval-containment
guessing.  Metric totals travel in the top-level ``metadata`` key, which
both viewers ignore.

JSONL is the streaming-friendly twin: one ``meta`` line, one line per
span, one per metric — greppable and diffable.

:func:`summarize` renders the deterministic text tree used by golden
tests and the CLI: spans aggregated by path (children in first-seen
order), with call counts, total seconds, and percent of the root.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .trace import Span, Trace

#: Chrome trace timestamps are integer-ish microseconds.
_US = 1e6

FORMAT_VERSION = 1


def _lane_order(spans: List[Span]) -> List[str]:
    """Lanes in first-appearance order, "main" always first if present."""
    lanes: List[str] = []
    for span in spans:
        if span.lane not in lanes:
            lanes.append(span.lane)
    if "main" in lanes:
        lanes.remove("main")
        lanes.insert(0, "main")
    return lanes


def chrome_trace(trace: Trace) -> Dict[str, Any]:
    """The trace as a Chrome trace-event JSON object."""
    lanes = _lane_order(trace.spans)
    tid_of = {lane: tid for tid, lane in enumerate(lanes)}
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for lane in lanes:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid_of[lane],
                "args": {"name": lane},
            }
        )
    for span in trace.spans:
        args: Dict[str, Any] = dict(span.attrs)
        args["span"] = span.index
        if span.parent is not None:
            args["parent"] = span.parent
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "repro",
                "ts": round(span.start * _US, 3),
                "dur": round(span.duration * _US, 3),
                "pid": 0,
                "tid": tid_of[span.lane],
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "generator": "repro.obs",
            "version": FORMAT_VERSION,
            "lanes": lanes,
            "metrics": trace.metrics.as_dict(),
        },
    }


def _record_trace_pointer(
    path: str, kind: str, run_id: Optional[int] = None
) -> None:
    """File a pointer to an exported trace in the experiment store when
    ``$REPRO_STORE`` opts in, so traces are one join away from the runs
    they explain.  ``run_id`` links the pointer to an already-recorded
    run row (the serve daemon records one per request).  Lazy import:
    obs stays dependency-free unless the store is actually in use."""
    from ..store import store_from_env

    store = store_from_env()
    if store is not None:
        with store:
            store.record_trace(path, kind=kind, run_id=run_id)


def write_chrome_trace(
    trace: Trace, path: str, *, run_id: Optional[int] = None
) -> None:
    """Write the Chrome trace JSON to ``path`` (stable key order)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(trace), handle, indent=1, sort_keys=True)
        handle.write("\n")
    _record_trace_pointer(path, "chrome", run_id)


def validate_chrome_trace(obj: Any) -> List[str]:
    """Validate an object against the trace-event schema this module
    emits.  Returns a list of problems — empty means valid.  The CI
    ``trace`` job runs this on the artifact it uploads."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["top level must be a JSON object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    span_ids = set()
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"{where}: ph must be 'X' or 'M', got {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing string name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: missing integer {key}")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"{where}: {key} must be a number >= 0")
            args = event.get("args", {})
            if not isinstance(args, dict) or not isinstance(
                args.get("span"), int
            ):
                errors.append(f"{where}: args.span index missing")
            else:
                span_ids.add(args["span"])
    for i, event in enumerate(events):
        if isinstance(event, dict) and event.get("ph") == "X":
            parent = event.get("args", {}).get("parent")
            if parent is not None and parent not in span_ids:
                errors.append(f"traceEvents[{i}]: dangling parent {parent}")
    return errors


def load_chrome_trace(path: str) -> Tuple[List[Span], Dict[str, Any]]:
    """Rebuild ``(spans, metrics_dict)`` from a file this module wrote.

    Raises:
        ValueError: if the file fails :func:`validate_chrome_trace`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    errors = validate_chrome_trace(obj)
    if errors:
        raise ValueError(f"{path} is not a valid repro trace: {errors[:3]}")
    lane_of_tid: Dict[int, str] = {}
    for event in obj["traceEvents"]:
        if event["ph"] == "M" and event["name"] == "thread_name":
            lane_of_tid[event["tid"]] = event["args"]["name"]
    spans: List[Span] = []
    for event in obj["traceEvents"]:
        if event["ph"] != "X":
            continue
        args = dict(event["args"])
        index = args.pop("span")
        parent = args.pop("parent", None)
        spans.append(
            Span(
                name=event["name"],
                start=event["ts"] / _US,
                duration=event["dur"] / _US,
                index=index,
                parent=parent,
                lane=lane_of_tid.get(event["tid"], f"tid-{event['tid']}"),
                attrs=args,
            )
        )
    spans.sort(key=lambda s: s.index)
    metrics = obj.get("metadata", {}).get("metrics", {})
    return spans, metrics


def write_jsonl(
    trace: Trace, path: str, *, run_id: Optional[int] = None
) -> None:
    """Write the trace as JSON lines: meta, spans, metrics."""
    _write_jsonl(trace, path)
    _record_trace_pointer(path, "jsonl", run_id)


def load_jsonl(path: str) -> Tuple[List[Span], Dict[str, Any]]:
    """Rebuild ``(spans, metrics_dict)`` from a :func:`write_jsonl`
    file — the inverse the CI serve job uses to re-validate a
    per-request JSONL trace against the Chrome schema (load, rebuild,
    :func:`validate_chrome_trace`).

    The returned metrics dict has the ``as_dict()`` shape
    (``counters``/``gauges``/``histograms``).

    Raises:
        ValueError: when the file is not a repro JSONL trace (bad meta
            line, unknown record type, or a span count that disagrees
            with the meta line).
    """
    spans: List[Span] = []
    metrics: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    meta: Optional[Dict[str, Any]] = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not JSON ({exc})"
                ) from None
            kind = record.get("type")
            if kind == "meta":
                meta = record
            elif kind == "span":
                spans.append(
                    Span(
                        name=record["name"],
                        start=record["start"],
                        duration=record["duration"],
                        index=record["index"],
                        parent=record["parent"],
                        lane=record["lane"],
                        attrs=dict(record.get("attrs", {})),
                    )
                )
            elif kind == "metric":
                metrics[record["kind"] + "s"][record["name"]] = record["value"]
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    if meta is None or meta.get("generator") != "repro.obs":
        raise ValueError(f"{path}: missing repro.obs meta line")
    if meta.get("spans") != len(spans):
        raise ValueError(
            f"{path}: meta says {meta.get('spans')} spans, found {len(spans)}"
        )
    spans.sort(key=lambda s: s.index)
    return spans, metrics


def _write_jsonl(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        meta = {
            "type": "meta",
            "generator": "repro.obs",
            "version": FORMAT_VERSION,
            "lanes": _lane_order(trace.spans),
            "spans": len(trace.spans),
        }
        handle.write(json.dumps(meta, sort_keys=True) + "\n")
        for span in trace.spans:
            record = {
                "type": "span",
                "name": span.name,
                "start": span.start,
                "duration": span.duration,
                "index": span.index,
                "parent": span.parent,
                "lane": span.lane,
                "attrs": span.attrs,
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        metrics = trace.metrics.as_dict()
        for kind in ("counters", "gauges", "histograms"):
            for name, value in metrics[kind].items():
                record = {
                    "type": "metric",
                    "kind": kind[:-1],
                    "name": name,
                    "value": value,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def summarize(
    spans: List[Span],
    metrics: Optional[Any] = None,
    *,
    max_depth: int = 6,
) -> str:
    """The deterministic text summary tree.

    Spans are aggregated by path — every occurrence of the same name
    chain folds into one line with a call count and a summed duration —
    with children in first-seen order, so two runs of the same code
    produce the same tree shape (durations differ, of course).

    ``metrics`` may be a :class:`~repro.obs.metrics.MetricsRegistry` or
    its ``as_dict()`` form.
    """
    if metrics is not None and hasattr(metrics, "as_dict"):
        metrics = metrics.as_dict()
    lanes = _lane_order(spans)
    roots = [s for s in spans if s.parent is None]
    total = sum(s.duration for s in roots)
    lines = [
        f"trace summary: {len(spans)} spans, "
        f"{len(lanes)} lane{'s' if len(lanes) != 1 else ''} "
        f"({', '.join(lanes)})"
    ]

    # path -> [count, total_duration]; insertion order preserves the
    # first-seen child order at every level.
    aggregate: Dict[Tuple[str, ...], List[float]] = {}
    paths: Dict[int, Tuple[str, ...]] = {}
    for span in spans:
        parent_path = paths.get(span.parent, ()) if span.parent is not None else ()
        path = parent_path + (span.name,)
        paths[span.index] = path
        entry = aggregate.setdefault(path, [0, 0.0])
        entry[0] += 1
        entry[1] += span.duration

    for path, (count, duration) in aggregate.items():
        depth = len(path) - 1
        if depth >= max_depth:
            continue
        share = 100.0 * duration / total if total > 0 else 0.0
        label = "  " * depth + path[-1]
        lines.append(
            f"  {label:<40} {int(count):>5}x {duration:>12.6f}s {share:>6.1f}%"
        )

    if metrics:
        counters = metrics.get("counters", {})
        if counters:
            lines.append("  metrics:")
            for name, value in sorted(counters.items()):
                lines.append(f"    {name:<42} {value:>14}")
    return "\n".join(lines)
