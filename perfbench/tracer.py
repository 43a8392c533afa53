"""Traced-mode instrumentation, applied to the program from outside.

The program is not edited.  :class:`Recorder` replaces the public entry
point of each layer — a module attribute, a class attribute, and every
``from x import f`` copy of it already bound in a loaded ``repro``
module — with a wrapper that records one span ``(name, start, end,
thread, attrs)`` in memory while recording is switched on.  With
recording off the wrapper costs one attribute test, which lets a traced
run alternate traced and untraced segments and measure its own
overhead.  Garbage-collector pauses are recorded the same way through
:data:`gc.callbacks`.

Spans stay in memory until the run ends; :func:`write_trace` then
writes them, with the program's own :mod:`repro.obs` spans, to one
JSON file.

The per-layer metrics are computed here, from three span sources that
share one clock (``time.perf_counter`` reads the system-wide monotonic
clock, so spans from the serve daemon line up with the client's):

* wrapper spans (:data:`LAYERS`, :data:`SERVE_LAYERS`);
* the program's own spans (``preprocess.labels``/``balls``/
  ``utilities``, ``selection``/``ordering``/``refinement``), read from an
  enabled :func:`repro.obs.tracing` trace or the daemon's per-request
  JSONL files;
* op spans the workload records around each operation it issues.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, attribute): the layer entry points every workload
#: passes through.  A dotted attribute names a class attribute.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("datasets.network", "repro.datasets.cities", "grid_city"),
    ("datasets.network", "repro.datasets.cities", "radial_city"),
    ("datasets.network", "repro.datasets.cities", "sprawl_city"),
    ("datasets.transit", "repro.datasets.cities", "build_transit_network"),
    ("datasets.demand", "repro.datasets.cities", "hotspot_demand"),
    ("eval.calibrate_alpha", "repro.eval.experiments", "calibrated_alpha"),
    ("engine.build", "repro.network.engine", "SearchEngine.__init__"),
    ("preprocess_queries", "repro.core.preprocess", "preprocess_queries"),
    ("plan", "repro.core.ebrr", "plan_route"),
    ("update", "repro.core.update", "update_preprocess"),
    ("journey.build", "repro.transit.journey", "JourneyPlanner.__init__"),
    ("journey.query", "repro.transit.journey", "JourneyPlanner.journey"),
)

#: The serve daemon's layers, patched inside the daemon by the launcher.
SERVE_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("serve.handle", "repro.serve.api", "PlanService.handle"),
    ("serve.admission", "repro.serve.admission", "AdmissionController.admit"),
    ("serve.handler", "repro.serve.api", "handle_plan"),
    ("serve.handler", "repro.serve.api", "handle_update"),
    ("serve.handler", "repro.serve.api", "handle_journey"),
    ("serve.export", "repro.serve.api", "write_jsonl"),
)

#: Spans that enclose a whole operation; they carry no layer time of
#: their own, so they never count as attributed.
ENVELOPES = frozenset({"op", "plan", "plan_route", "serve.handle", "request"})

#: The program's own span names the per-layer metrics read.
PREPROCESS_PARTS = ("preprocess.labels", "preprocess.balls", "preprocess.utilities")
PLAN_PHASES = ("preprocess", "selection", "ordering", "refinement")


@dataclass
class Span:
    name: str
    start: float
    end: float
    tid: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> List[Any]:
        return [self.name, self.start, self.end, self.tid, self.attrs]

    @classmethod
    def from_json(cls, row: Sequence[Any]) -> "Span":
        return cls(row[0], row[1], row[2], row[3], dict(row[4]))


def _update_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    # update_preprocess(instance, preprocess, new_queries): the RNN
    # entries of the resident preprocessing are what the update copies.
    preprocess = args[1] if len(args) > 1 else kwargs["preprocess"]
    return {
        "state_entries": sum(len(v) for v in preprocess.rnn.values()),
        "searches": result[2].searches,
    }


def _handle_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    status, body = result
    return {"path": args[2], "status": status, "request_id": body.get("request_id")}


#: Extra attributes some wrappers take from the call, after the clock
#: has stopped.
ATTRS: Dict[str, Callable[[tuple, dict, Any], Dict[str, Any]]] = {
    "update": _update_attrs,
    "serve.handle": _handle_attrs,
}


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._gc_start: Optional[float] = None

    # -- installation --------------------------------------------------

    def install(self, layers: Iterable[Tuple[str, str, str]] = LAYERS) -> None:
        for name, module_name, attr in layers:
            self._patch(name, module_name, attr)
        gc.callbacks.append(self._gc_callback)

    def _patch(self, name: str, module_name: str, attr: str) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, leaf, self.wrap(name, owner.__dict__[leaf]))
            return
        original = getattr(module, leaf)
        wrapped = self.wrap(name, original)
        # Rebind the module attribute and every copy a loaded repro
        # module holds, by name or as a value of a module-level dict
        # (the serve endpoint table).
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self
        attrs_of = ATTRS.get(name)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return func(*args, **kwargs)
            start = time.perf_counter()
            result = func(*args, **kwargs)
            end = time.perf_counter()
            attrs = attrs_of(args, kwargs, result) if attrs_of else {}
            recorder.spans.append(Span(name, start, end, threading.get_ident(), attrs))
            return result

        return wrapper

    def _gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            if self.enabled:
                self.spans.append(Span("runtime.gc", self._gc_start, time.perf_counter()))
            self._gc_start = None

    # -- op spans the workload records ---------------------------------

    def op(self, kind: str, start: float, end: float) -> None:
        if self.enabled:
            self.spans.append(Span("op", start, end, threading.get_ident(), {"kind": kind}))


def obs_spans(trace: Any) -> List[Span]:
    """The finished spans of a :class:`repro.obs.Trace` (or a list of
    ``repro.obs`` spans), on the common :class:`Span` shape."""
    spans = trace.spans if hasattr(trace, "spans") else trace
    return [
        Span(s.name, s.start, s.start + s.duration, 0, dict(s.attrs))
        for s in spans
        if s.duration > 0
    ]


def write_trace(path: str, spans: Dict[str, List[Span]], meta: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"meta": meta, "spans": {k: [s.to_json() for s in v] for k, v in spans.items()}},
            handle,
        )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def _within(spans: Iterable[Span], outer: Span) -> List[Span]:
    return [s for s in spans if s.start >= outer.start and s.end <= outer.end]


def covered(spans: Iterable[Span], lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` covered by the union of ``spans``."""
    total = 0.0
    cursor = lo
    for s in sorted(spans, key=lambda s: s.start):
        start, end = max(s.start, cursor), min(s.end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class OpTrace:
    """One traced operation: its window and the spans inside it."""

    kind: str
    start: float
    end: float
    spans: List[Span]

    @property
    def wall(self) -> float:
        return self.end - self.start


def layer_metrics(
    spans: List[Span],
    program: List[Span],
    ops: List[OpTrace],
) -> Dict[str, float]:
    """Per-layer metrics common to every workload.

    ``spans`` are wrapper spans (setups and traced segments), ``program``
    the program's own spans over the same periods, ``ops`` the traced
    measured operations with the spans attributed to each.

    Times are means per call of the layer's entry point, so they add up
    along a call: a plan's phases plus ``plan.unattributed_s`` make the
    plan's mean wall time.
    """
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def per_call(name: str) -> float:
        return mean([s.duration for s in by_name.get(name, [])])

    out: Dict[str, float] = {
        "datasets.network_s": per_call("datasets.network"),
        "datasets.transit_s": per_call("datasets.transit"),
        "datasets.demand_s": per_call("datasets.demand"),
        "eval.calibrate_alpha_s": per_call("eval.calibrate_alpha"),
        "engine.build_s": per_call("engine.build"),
        "preprocess.s": per_call("preprocess_queries"),
    }
    pre_calls = by_name.get("preprocess_queries", [])
    for part in PREPROCESS_PARTS:
        total = sum(
            s.duration for call in pre_calls for s in _within(program, call) if s.name == part
        )
        out[f"{part}_s"] = total / len(pre_calls) if pre_calls else 0.0

    # Planning phases, over the plan calls inside traced measured ops.
    plans = [s for op in ops for s in op.spans if s.name == "plan"]
    phase_spans = [s for op in ops for s in op.spans if s.name in PLAN_PHASES]
    phase_total: Dict[str, float] = {name: 0.0 for name in PLAN_PHASES}
    evaluations = selected = 0
    for s in phase_spans:
        phase_total[s.name] += s.duration
        if s.name == "selection":
            evaluations += int(s.attrs.get("evaluations", 0))
            selected += int(s.attrs.get("selected", 0))
    n_plans = max(1, len(plans))
    for name in ("selection", "ordering", "refinement"):
        out[f"{name}.s"] = phase_total[name] / n_plans
    out["selection.evaluations"] = evaluations / n_plans
    out["selection.useful_ratio"] = selected / evaluations if evaluations else 0.0
    out["plan.unattributed_s"] = (
        sum(s.duration for s in plans) - sum(phase_total.values())
    ) / n_plans

    gc_spans = by_name.get("runtime.gc", [])
    pause = sum(covered(gc_spans, op.start, op.end) for op in ops)
    out["runtime.gc_pause_ms"] = 1000.0 * pause / max(1, len(ops))
    wall = sum(op.wall for op in ops)
    attributed = sum(
        covered([s for s in op.spans if s.name not in ENVELOPES], op.start, op.end)
        for op in ops
    )
    out["trace.unattributed_pct"] = 100.0 * (wall - attributed) / wall if wall else 0.0
    return out


def overhead_pct(ops: Iterable[Tuple[Any, bool, float]]) -> float:
    """How much slower an op runs with tracing on, in percent.

    ``ops`` are ``(key, traced, latency)``; traced and untraced segments
    run different ops, so each key's traced median is compared with its
    own untraced median, and the result is the median over keys."""
    by_key: Dict[Any, Tuple[List[float], List[float]]] = {}
    for key, traced, latency in ops:
        by_key.setdefault(key, ([], []))[traced].append(latency)
    ratios = [p50(on) / p50(off) for off, on in by_key.values() if on and off]
    return 100.0 * (p50(ratios) - 1.0) if ratios else 0.0
