"""Request handlers — the service layer between HTTP glue and planner.

Transport-agnostic by design: :class:`PlanService` takes ``(method,
path, payload-dict)`` and returns ``(status, body-dict)``, so the whole
API is testable without a socket and the :mod:`repro.serve.server`
glue stays a thin JSON adapter.  The endpoint surface:

============================  =========================================
``POST /v1/plan``             plan a route (optional ``max_stops`` /
                              ``max_adjacent_cost`` overrides)
``POST /v1/update``           demand add/retire through the warm
                              ``update_preprocess`` path
``POST /v1/journey``          door-to-door itinerary on the planned
                              route
``GET /v1/datasets``          resident tenants and their shapes
``GET /v1/stats``             admission counters, engine cache health,
                              ``search.total.*`` counters
``GET /healthz``              liveness probe
============================  =========================================

**One planning core, one queue.**  All compute (plan/update/journey)
runs one request at a time: the :mod:`repro.obs` enabled-trace slot is
a process global and the engine caches are plain dicts, and the
workload is GIL-bound anyway, so serializing costs nothing real while
making warm-state mutation and per-request tracing trivially safe.
The :class:`~repro.serve.admission.AdmissionController` is both the
serialization and the daemon's only queue: POST endpoints wait there,
deadline-bounded, and are shed with 429/503; GET endpoints bypass it
entirely (probes must work under load).

**Per-request observability.**  Every compute request runs under its
own request-scoped :class:`~repro.obs.Trace` rooted at a ``request``
span carrying the request id, so the planner's phase spans nest under
it.  With ``--trace-dir`` each request is exported as one JSONL file
(``<request-id>.jsonl``); with ``$REPRO_STORE`` set each request also
lands as a run row (kind ``serve``) with latency metrics plus a trace
pointer joined to it.

Identity guarantee: responses carry exactly the fields of the
underlying :class:`~repro.core.result.EBRRResult` / ``UpdateStats`` /
``Itinerary`` objects — bit-identical to a direct in-process call under
the same config (asserted in ``tests/serve/``); only the request id
and wall-clock timings differ between two identical requests.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..exceptions import ReproError
from ..obs import Trace, now, span, tracing, write_jsonl
from .admission import AdmissionController, AdmissionRejected
from .registry import DatasetRegistry, Tenant

JsonDict = Dict[str, Any]
Response = Tuple[int, JsonDict]


class ApiError(Exception):
    """A client error with an HTTP status and a safe, complete message
    (this string *is* the response body's ``error`` field — no
    tracebacks cross the wire)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


# -- payload validation (clean 400s, never stack traces) ---------------


def _payload_str(payload: Mapping[str, Any], key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ApiError(400, f"field {key!r} must be a non-empty string")
    return value


def _payload_int(
    payload: Mapping[str, Any],
    key: str,
    *,
    required: bool = False,
    minimum: Optional[int] = None,
) -> Optional[int]:
    value = payload.get(key)
    if value is None:
        if required:
            raise ApiError(400, f"field {key!r} is required")
        return None
    # bool is an int subclass; "max_stops": true is a client bug.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(400, f"field {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ApiError(400, f"field {key!r} must be >= {minimum}")
    return value


def _payload_float(
    payload: Mapping[str, Any], key: str, *, positive: bool = False
) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ApiError(400, f"field {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the double range
        number = math.inf if value > 0 else -math.inf
    if positive:
        # Python's json accepts the literals NaN and Infinity.
        if not math.isfinite(number):
            raise ApiError(400, f"field {key!r} must be finite")
        if number <= 0:
            raise ApiError(400, f"field {key!r} must be positive")
    return number


def _payload_int_list(payload: Mapping[str, Any], key: str) -> List[int]:
    value = payload.get(key)
    if value is None:
        return []
    if not isinstance(value, list) or any(
        isinstance(item, bool) or not isinstance(item, int) for item in value
    ):
        raise ApiError(400, f"field {key!r} must be a list of integers")
    return list(value)


# -- endpoint handlers -------------------------------------------------
#
# Module-level public functions on purpose: RL011 holds every public
# ``handle_*`` entry point under repro.serve to span coverage, the same
# contract as the core pipeline phases.


def handle_plan(tenant: Tenant, payload: Mapping[str, Any]) -> JsonDict:
    """Plan a route on the tenant's warm state.

    Optional payload fields ``max_stops`` / ``max_adjacent_cost``
    override the tenant defaults for this request only.
    """
    max_stops = _payload_int(payload, "max_stops", minimum=2)
    max_adjacent_cost = _payload_float(
        payload, "max_adjacent_cost", positive=True
    )
    with span("serve.plan", dataset=tenant.name):
        result = tenant.plan(
            max_stops=max_stops, max_adjacent_cost=max_adjacent_cost
        )
    metrics = result.metrics
    config = result.config
    return {
        "dataset": tenant.name,
        "route": {
            "route_id": result.route.route_id,
            "stops": list(result.route.stops),
            "path": list(result.route.path),
        },
        "metrics": {
            "utility": metrics.utility,
            "walk_cost": metrics.walk_cost,
            "walk_decrease": metrics.walk_decrease,
            "connectivity": metrics.connectivity,
            "num_stops": metrics.num_stops,
            "route_length": metrics.route_length,
        },
        "feasible": result.is_feasible,
        "violations": list(result.constraint_violations),
        "config": {
            "max_stops": config.max_stops,
            "max_adjacent_cost": config.max_adjacent_cost,
            "alpha": config.alpha,
            "kernel": tenant.engine.kernel_name,
        },
        "timings": dict(result.timings),
    }


def handle_update(tenant: Tenant, payload: Mapping[str, Any]) -> JsonDict:
    """Apply a demand change (query-node add/retire) incrementally."""
    add = _payload_int_list(payload, "add")
    remove = _payload_int_list(payload, "remove")
    if not add and not remove:
        raise ApiError(
            400, "update needs at least one of 'add' or 'remove'"
        )
    with span("serve.update", dataset=tenant.name, add=len(add), remove=len(remove)):
        stats = tenant.apply_update(add, remove)
    return {
        "dataset": tenant.name,
        "stats": {
            "added_nodes": stats.added_nodes,
            "removed_nodes": stats.removed_nodes,
            "rescaled_nodes": stats.rescaled_nodes,
            "searches": stats.searches,
        },
        "queries": len(tenant.instance.queries),
        "updates_applied": tenant.updates_applied,
    }


def handle_journey(tenant: Tenant, payload: Mapping[str, Any]) -> JsonDict:
    """Door-to-door itinerary over existing routes plus the planned
    route (planning it first if no warm plan exists)."""
    origin = _payload_int(payload, "origin", required=True, minimum=0)
    destination = _payload_int(payload, "destination", required=True, minimum=0)
    num_nodes = tenant.instance.network.num_nodes
    for key, node in (("origin", origin), ("destination", destination)):
        if node is None or node >= num_nodes:
            raise ApiError(
                400, f"field {key!r} must be a node id < {num_nodes}"
            )
    assert origin is not None and destination is not None
    with span("serve.journey", dataset=tenant.name):
        itinerary = tenant.journey_planner().journey(origin, destination)
    return {
        "dataset": tenant.name,
        "origin": origin,
        "destination": destination,
        "minutes": itinerary.minutes,
        "legs": [
            {
                "mode": leg.mode,
                "route_id": leg.route_id,
                "nodes": list(leg.nodes),
                "minutes": leg.minutes,
            }
            for leg in itinerary.legs
        ],
    }


#: POST endpoint table: path -> handler.  All go through admission and
#: request-scoped tracing; the handler only sees (tenant, payload).
_POST_HANDLERS: Dict[str, Callable[[Tenant, Mapping[str, Any]], JsonDict]] = {
    "/v1/plan": handle_plan,
    "/v1/update": handle_update,
    "/v1/journey": handle_journey,
}


class PlanService:
    """Registry + admission + per-request observability, behind one
    ``handle(method, path, payload) -> (status, body)`` entry point.

    Args:
        registry: the resident tenants.
        admission: the request gate; ``None`` builds one with defaults.
        trace_dir: when set, each compute request's trace is written
            here as ``<request-id>.jsonl`` (the directory is created).
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        *,
        admission: Optional[AdmissionController] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        self.registry = registry
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.trace_dir = trace_dir
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        self._request_ids = itertools.count(1)
        self._started = now()
        self._served = 0

    # -- dispatch ------------------------------------------------------

    def handle(
        self, method: str, path: str, payload: Optional[Mapping[str, Any]]
    ) -> Response:
        """Route one request; never raises on client errors."""
        request_id = f"req-{next(self._request_ids):06d}"
        try:
            return self._dispatch(method, path, payload, request_id)
        except ApiError as exc:
            return exc.status, {"error": exc.message, "request_id": request_id}
        except AdmissionRejected as exc:
            return exc.status, {"error": str(exc), "request_id": request_id}
        except KeyError as exc:
            # Registry lookups raise KeyError with a complete message.
            return 404, {"error": str(exc).strip("'\""), "request_id": request_id}
        except ReproError as exc:
            # Domain validation (DemandError, GraphError, ...): the
            # request named something the dataset rejects.
            return 400, {"error": str(exc), "request_id": request_id}

    def _dispatch(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]],
        request_id: str,
    ) -> Response:
        if method == "GET":
            if path == "/healthz":
                return 200, self.health()
            if path == "/v1/datasets":
                return 200, {"datasets": self.registry.describe()}
            if path == "/v1/stats":
                return 200, self.stats()
            raise ApiError(404, f"unknown path {path!r}")
        if method == "POST":
            handler = _POST_HANDLERS.get(path)
            if handler is None:
                raise ApiError(404, f"unknown path {path!r}")
            if payload is None:
                raise ApiError(400, "request body must be a JSON object")
            return 200, self._compute(handler, path, payload, request_id)
        raise ApiError(405, f"method {method} not allowed")

    # -- the admitted, traced compute path -----------------------------

    def _compute(
        self,
        handler: Callable[[Tenant, Mapping[str, Any]], JsonDict],
        path: str,
        payload: Mapping[str, Any],
        request_id: str,
    ) -> JsonDict:
        tenant = self.registry.get(_payload_str(payload, "dataset"))
        timeout_s = _payload_float(payload, "timeout_s", positive=True)
        # Admission runs one request at a time (see the module
        # docstring); the export below runs outside it.
        with self.admission.admit(timeout_s):
            trace = Trace(lane="serve")
            started = now()
            with tracing(trace):
                with span(
                    "request",
                    request_id=request_id,
                    endpoint=path,
                    dataset=tenant.name,
                ):
                    body = handler(tenant, payload)
            elapsed = now() - started
            self._served += 1
        body["request_id"] = request_id
        self._export(trace, request_id, path, tenant, elapsed)
        return body

    def _export(
        self,
        trace: Trace,
        request_id: str,
        path: str,
        tenant: Tenant,
        elapsed: float,
    ) -> None:
        """Persist the request's observability artifacts: a run row in
        the opt-in store and/or a JSONL trace file."""
        run_id: Optional[int] = None
        from ..store import store_from_env

        store = store_from_env()
        if store is not None:
            with store:
                run_id = store.record_run(
                    "serve",
                    path,
                    dataset=tenant.name,
                    seed=tenant.spec.seed,
                    config=asdict(tenant.spec),
                    metrics={
                        "latency_s": elapsed,
                        "request": request_id,
                        "spans": len(trace.spans),
                    },
                )
        if self.trace_dir is not None:
            out = os.path.join(self.trace_dir, f"{request_id}.jsonl")
            write_jsonl(trace, out, run_id=run_id)

    # -- GET bodies ----------------------------------------------------

    def health(self) -> JsonDict:
        """Liveness: cheap, admission-free, usable as readiness probe."""
        return {
            "status": "ok",
            "datasets": self.registry.names(),
            "requests_served": self._served,
            "uptime_s": now() - self._started,
        }

    def stats(self) -> JsonDict:
        """Queue depth, per-tenant engine cache health, search totals."""
        return {
            "uptime_s": now() - self._started,
            "requests_served": self._served,
            "admission": self.admission.stats(),
            "datasets": {
                name: self.registry.get(name).stats()
                for name in self.registry.names()
            },
        }
