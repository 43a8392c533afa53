"""repro.serve — planning-as-a-service over the warm engine substrate.

The step from benchmark script to long-lived system (ROADMAP item 1):
a stdlib-only HTTP/JSON daemon that loads cities once and answers
plan/update/journey requests from resident state —

* :mod:`repro.serve.registry` — multi-tenant dataset registry: per
  tenant, the shared :class:`~repro.network.engine.SearchEngine` (with
  bounded cache capacity), the resident
  Algorithm 2 preprocessing, the default plan, and the journey planner,
  all repaired incrementally on demand updates;
* :mod:`repro.serve.admission` — the daemon's one queue: one request
  at a time on the planning core, a deadline-capped wait queue and
  429/503 shedding;
* :mod:`repro.serve.api` — the transport-agnostic handlers with
  per-request span trees, JSONL trace export (``--trace-dir``), and
  run rows in the ``$REPRO_STORE`` experiment store;
* :mod:`repro.serve.server` — the ``ThreadingHTTPServer`` JSON glue.

Start it with ``repro serve --dataset orlando`` (see README "Running
the server").  Responses are bit-identical to direct in-process
``plan_route`` calls under the same config — warm state is a cache,
never an approximation.
"""

from .admission import (
    AdmissionController,
    AdmissionRejected,
    AdmissionTicket,
    DeadlineExceeded,
    QueueFull,
)
from .api import ApiError, PlanService, handle_journey, handle_plan, handle_update
from .registry import DatasetRegistry, Tenant, TenantSpec
from .server import PlanHTTPServer, create_server, run_server

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTicket",
    "ApiError",
    "DatasetRegistry",
    "DeadlineExceeded",
    "PlanHTTPServer",
    "PlanService",
    "QueueFull",
    "Tenant",
    "TenantSpec",
    "create_server",
    "handle_journey",
    "handle_plan",
    "handle_update",
    "run_server",
]
