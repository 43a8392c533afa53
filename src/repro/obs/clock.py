"""The one sanctioned monotonic clock.

Every duration in this repository is a difference of two readings of
this clock — the per-phase timings of :func:`repro.core.ebrr.plan_route`,
the baseline timing dicts, the experiment harness, and every trace span
of :mod:`repro.obs.trace`.  ``time.perf_counter()`` appears exactly once
in ``src/`` (here); the RL008 lint rule enforces that everything else
goes through these helpers, so there is a single timing implementation
to reason about (resolution, monotonicity).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Tuple, TypeVar

T = TypeVar("T")


def now() -> float:
    """The current monotonic reading, in fractional seconds."""
    return time.perf_counter()


@contextmanager
def stopwatch(sink: Dict[str, float], key: str) -> Iterator[None]:
    """Record elapsed seconds into ``sink[key]`` (also on exception)."""
    start = now()
    try:
        yield
    finally:
        sink[key] = now() - start


def timed(func: Callable[[], T]) -> Tuple[T, float]:
    """Run ``func`` once; return ``(result, elapsed_seconds)``."""
    start = now()
    result = func()
    return result, now() - start
