"""Bounded admission for the serve daemon: its one queue.

A long-lived planning service must degrade *gracefully* under load:
``ThreadingHTTPServer`` spawns a thread per connection, so without a
gate an overload turns into an unbounded pile of threads all fighting
for the one planning core.  The :class:`AdmissionController` is that
gate and the daemon's only queue — a condition variable that admits
**one** request at a time to the planning core and lets a bounded
number *wait* for it, each with a per-request deadline while waiting:

* queue full → reject immediately with **429** (Too Many Requests);
* deadline expires while queued → reject with **503** (Service
  Unavailable, the retry-later signal).

Rejections are exceptions carrying their HTTP status so the handler
layer maps them mechanically; every decision is counted and surfaced
through ``GET /v1/stats`` (see :mod:`repro.serve.api`).

Deadlines run on the :func:`repro.obs.now` monotonic clock — the same
time source as every span in the system, so a request's wait and its
trace agree about elapsed time.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Dict, Optional, Type

from ..exceptions import ConfigurationError, ReproError
from ..obs import now


class AdmissionRejected(ReproError):
    """A request the controller refused to run.

    Attributes:
        status: the HTTP status the transport layer should answer with.
    """

    status = 503


class QueueFull(AdmissionRejected):
    """The planning core busy and the wait queue at capacity."""

    status = 429


class DeadlineExceeded(AdmissionRejected):
    """The request's deadline expired before the planning core freed."""

    status = 503


class AdmissionTicket:
    """Context-manager handle for one admitted request; exiting the
    block frees the planning core and wakes one waiter."""

    __slots__ = ("_controller",)

    def __init__(self, controller: "AdmissionController") -> None:
        self._controller = controller

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self._controller._release()
        return False


class AdmissionController:
    """One request at a time on the planning core, behind a
    deadline-capped wait queue.

    Args:
        max_queued: requests allowed to wait for the core (>= 0).
            ``0`` sheds every request that cannot be admitted
            immediately.
        default_timeout_s: deadline applied when a request does not
            carry its own ``timeout_s`` (> 0).
    """

    def __init__(
        self,
        *,
        max_queued: int = 16,
        default_timeout_s: float = 30.0,
    ) -> None:
        if max_queued < 0:
            raise ConfigurationError(
                f"max_queued must be >= 0, got {max_queued}"
            )
        if default_timeout_s <= 0:
            raise ConfigurationError(
                f"default_timeout_s must be positive, got {default_timeout_s}"
            )
        self.max_queued = max_queued
        self.default_timeout_s = default_timeout_s
        self._cond = threading.Condition()
        self._in_flight = 0
        self._queued = 0
        self._admitted = 0
        self._completed = 0
        self._rejected_queue_full = 0
        self._rejected_deadline = 0

    def admit(self, timeout_s: Optional[float] = None) -> AdmissionTicket:
        """Claim the planning core, waiting up to the deadline.

        Returns a ticket to use as a context manager around the
        request's work.

        Raises:
            QueueFull: the core is busy and the wait queue is at capacity.
            DeadlineExceeded: the deadline expired while waiting.
        """
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        deadline = now() + timeout_s
        with self._cond:
            if self._in_flight and self._queued >= self.max_queued:
                self._rejected_queue_full += 1
                raise QueueFull(
                    f"planning core busy and {self._queued} requests "
                    "already queued"
                )
            self._queued += 1
            try:
                while self._in_flight:
                    remaining = deadline - now()
                    if remaining <= 0:
                        self._rejected_deadline += 1
                        raise DeadlineExceeded(
                            f"no slot freed within {timeout_s:.3f}s"
                        )
                    self._cond.wait(timeout=remaining)
            finally:
                self._queued -= 1
            self._in_flight = 1
            self._admitted += 1
        return AdmissionTicket(self)

    def _release(self) -> None:
        with self._cond:
            self._in_flight = 0
            self._completed += 1
            self._cond.notify()

    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of the counters, for ``/v1/stats``."""
        with self._cond:
            return {
                "max_queued": self.max_queued,
                "in_flight": self._in_flight,
                "queued": self._queued,
                "admitted": self._admitted,
                "completed": self._completed,
                "rejected_queue_full": self._rejected_queue_full,
                "rejected_deadline": self._rejected_deadline,
            }
