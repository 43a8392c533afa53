"""Typed metrics: counters, gauges, histograms in one registry.

The registry is the numeric side of a :class:`~repro.obs.trace.Trace`:
spans say *where time went*, metrics say *how much work was done*.  The
engine's :class:`~repro.network.engine.SearchStats` blocks fold into
ordinary counters via :meth:`MetricsRegistry.absorb_search_stats`, so a
trace export carries the same totals as ``--profile-searches``.

Everything here is plain data: :meth:`MetricsRegistry.as_dict` is the
sorted snapshot the trace exporters write.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Mapping, Optional

#: The counter fields of one ``SearchStats`` block, in declaration order.
SEARCH_STAT_FIELDS = ("searches", "cache_hits", "settled", "pushes")


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A last-write-wins sampled value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Optional[float] = None) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of an observed distribution.

    Tracks ``count`` / ``total`` / ``min`` / ``max`` — enough for the
    summary tree without keeping every observation.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """All metrics of one trace, keyed by name within each kind."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    # ------------------------------------------------------------------
    # SearchStats absorption
    # ------------------------------------------------------------------

    def absorb_search_stats(self, phase: str, stats: Any) -> None:
        """Fold one engine :class:`SearchStats`-shaped block (anything
        with the five counter attributes) into ``search.<phase>.*`` and
        ``search.total.*`` counters."""
        for field in SEARCH_STAT_FIELDS:
            amount = getattr(stats, field)
            self.counter(f"search.{phase}.{field}").inc(amount)
            self.counter(f"search.total.{field}").inc(amount)

    def absorb_search_profile(self, profile: Mapping[str, Any]) -> None:
        """Absorb a whole per-phase stats dict (e.g.
        :attr:`~repro.core.result.EBRRResult.search_stats`)."""
        for phase, stats in profile.items():
            self.absorb_search_stats(phase, stats)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """A plain-data snapshot, stable under JSON round-trips."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: {"count": h.count, "total": h.total, "min": h.min, "max": h.max}
                for n, h in sorted(self.histograms.items())
                if h.count
            },
        }

    def names(self) -> Iterable[str]:
        """Every metric name, sorted, across all kinds."""
        return sorted(
            set(self.counters) | set(self.gauges) | set(self.histograms)
        )
