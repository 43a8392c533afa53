"""Hierarchical trace spans on the monotonic clock.

A :class:`Span` is one timed region of work — a name, a start reading
of :func:`repro.obs.clock.now`, a duration, free-form attributes, and a
parent link — appended to the flat buffer of a :class:`Trace`.  Parent
links are buffer indices, so a trace slices and exports without object
graphs.

One module-global trace can be *enabled*; :func:`span` writes into it.
When no trace is enabled, :func:`span` returns a shared no-op handle
without reading the clock or allocating — the disabled cost is one
global load and one ``is None`` check per call site (gated below 3% of
the phase-breakdown workload by ``benchmarks/bench_trace_overhead.py``).

Each trace carries a *lane* label (``"main"`` by default, ``"serve"``
for the daemon's per-request traces), which becomes the thread track in
the Chrome trace export.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import TracebackType
from typing import Any, Callable, Dict, Iterator, List, Optional, Type, TypeVar

from .clock import now
from .metrics import MetricsRegistry

F = TypeVar("F", bound=Callable[..., Any])

#: Phase names :func:`repro.core.ebrr.plan_route` records, in pipeline
#: order (the keys of ``EBRRResult.timings`` besides ``total``).
PLAN_PHASES = ("preprocess", "selection", "ordering", "refinement")


@dataclass
class Span:
    """One completed (or still-open) timed region.

    Attributes:
        name: the region label (dotted names group in the summary tree).
        start: :func:`~repro.obs.clock.now` reading at entry.
        duration: elapsed seconds (0.0 while still open).
        index: this span's position in its trace buffer.
        parent: buffer index of the enclosing span, ``None`` for roots.
        lane: lane of the trace the span was recorded in.
        attrs: free-form attributes (JSON-serializable values).
    """

    name: str
    start: float
    duration: float = 0.0
    index: int = 0
    parent: Optional[int] = None
    lane: str = "main"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class LiveSpan:
    """Context-manager handle for one open span."""

    __slots__ = ("_trace", "span")

    def __init__(self, trace: "Trace", span: Span) -> None:
        self._trace = trace
        self.span = span

    def set(self, **attrs: Any) -> "LiveSpan":
        """Attach attributes to the open span."""
        self.span.attrs.update(attrs)
        return self

    def __enter__(self) -> "LiveSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        self._trace.finish(self.span)
        return False


class _NullSpan:
    """The shared do-nothing handle returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Trace:
    """One run's span buffer plus its metrics registry.

    Args:
        lane: lane label stamped on spans recorded here.
        clock: the time source (injectable for deterministic tests and
            golden exports; defaults to the monotonic clock).
    """

    def __init__(
        self,
        *,
        lane: str = "main",
        clock: Callable[[], float] = now,
    ) -> None:
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self.lane = lane
        self._clock = clock
        self._stack: List[int] = []

    def begin(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> LiveSpan:
        """Open a child of the current span; use as a context manager."""
        span = Span(
            name=name,
            start=self._clock(),
            index=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            lane=self.lane,
            attrs=dict(attrs) if attrs else {},
        )
        self.spans.append(span)
        self._stack.append(span.index)
        return LiveSpan(self, span)

    def finish(self, span: Span) -> None:
        """Close ``span`` (and anything left open beneath it)."""
        span.duration = self._clock() - span.start
        while self._stack and self._stack.pop() != span.index:
            pass

    def current_span(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self.spans[self._stack[-1]] if self._stack else None

    def children(self, parent_index: Optional[int]) -> List[Span]:
        """Direct children of the given span index (``None`` = roots)."""
        return [s for s in self.spans if s.parent == parent_index]


def extract_run(trace: Trace, first_index: int) -> List[Span]:
    """Copy ``trace.spans[first_index:]`` rebased so the slice is
    self-contained: indices start at 0 and parent links pointing before
    the slice become ``None``.  This is how one :func:`plan_route` run
    detaches its spans from a longer-lived trace for
    :attr:`~repro.core.result.EBRRResult.spans`."""
    run: List[Span] = []
    for span in trace.spans[first_index:]:
        parent = span.parent
        run.append(
            replace(
                span,
                index=span.index - first_index,
                parent=parent - first_index
                if parent is not None and parent >= first_index
                else None,
                attrs=dict(span.attrs),
            )
        )
    return run


def phase_timings(spans: List[Span], root_index: int = 0) -> Dict[str, float]:
    """The ``EBRRResult.timings`` dict derived from run spans: one key
    per :data:`PLAN_PHASES` child of the root span plus ``total`` (the
    root's own duration).  This is the *single* source of phase timings
    — the diagnostics report and the trace export cannot drift apart
    because both read the same measured spans."""
    timings: Dict[str, float] = {}
    for span in spans:
        if span.parent == root_index and span.name in PLAN_PHASES:
            timings[span.name] = span.duration
    if spans:
        timings["total"] = spans[root_index].duration
    return timings


# ----------------------------------------------------------------------
# The module-global enabled trace
# ----------------------------------------------------------------------

_ACTIVE: Optional[Trace] = None


def enable(trace: Optional[Trace] = None) -> Trace:
    """Install ``trace`` (or a fresh one) as the process's enabled
    trace and return it."""
    global _ACTIVE
    _ACTIVE = trace if trace is not None else Trace()
    return _ACTIVE


def disable() -> Optional[Trace]:
    """Disable tracing; returns the trace that was enabled, if any."""
    global _ACTIVE
    trace, _ACTIVE = _ACTIVE, None
    return trace


def current_trace() -> Optional[Trace]:
    """The enabled trace, or ``None`` while tracing is disabled."""
    return _ACTIVE


def span(name: str, **attrs: Any) -> Any:
    """Open a span in the enabled trace; a shared no-op handle when
    tracing is disabled.  Use as a context manager::

        with span("selection", K=config.max_stops):
            ...
    """
    trace = _ACTIVE
    if trace is None:
        return NULL_SPAN
    return trace.begin(name, attrs if attrs else None)


def traced(name: Optional[str] = None, **attrs: Any) -> Callable[[F], F]:
    """Decorator form of :func:`span`; defaults to the function name."""

    def decorate(func: F) -> F:
        import functools

        label = name if name is not None else func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            trace = _ACTIVE
            if trace is None:
                return func(*args, **kwargs)
            with trace.begin(label, attrs if attrs else None):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


class tracing:
    """Context manager: enable a trace for a block, restoring whatever
    was enabled before (nesting-safe, exception-safe)::

        with tracing() as trace:
            plan_route(...)
        write_chrome_trace(trace, "out.json")
    """

    def __init__(self, trace: Optional[Trace] = None) -> None:
        self._trace = trace if trace is not None else Trace()
        self._previous: Optional[Trace] = None

    def __enter__(self) -> Trace:
        self._previous = current_trace()
        return enable(self._trace)

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


def iter_tree(
    spans: List[Span], parent: Optional[int] = None
) -> Iterator[Span]:
    """Yield ``spans`` in depth-first tree order (children in buffer
    order, which is start order within one lane)."""
    for s in spans:
        if s.parent == parent:
            yield s
            yield from iter_tree(spans, s.index)
