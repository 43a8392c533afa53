"""Multi-tenant dataset registry — the daemon's warm residency layer.

ROADMAP item 1 in one sentence: load a city **once**, then answer every
request from warm state.  A :class:`Tenant` is one resident dataset
together with everything expensive the planner derives from it:

* the shared :class:`~repro.network.engine.SearchEngine` (row/point
  LRU caches, label fields) attached to the network, with an optional
  explicit cache capacity so the long-lived process has bounded memory;
* the Algorithm 2 :class:`~repro.core.preprocess.PreprocessResult`
  (``nn_distance``/``rnn``/``initial_utility``), computed once and
  repaired *incrementally* by :func:`~repro.core.update.
  update_preprocess` when ``/v1/update`` changes the demand — the
  demand-change-proportional path, never a cold replan;
* the default-config plan and the :class:`~repro.transit.journey.
  JourneyPlanner` over the transit network *plus* that planned route,
  both invalidated by updates and rebuilt lazily.

Identity guarantee: a tenant's state is only ever (a) the same objects
a direct caller would build, or (b) incremental repairs the equivalence
suites prove value-identical to scratch recomputation.  Engine caches
never change results (only hit rates), so a response served warm is
bit-identical to a cold in-process ``plan_route`` under the same
config — ``tests/serve/`` asserts exactly that.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from ..core.config import EBRRConfig
from ..core.ebrr import plan_route
from ..core.preprocess import PreprocessResult, preprocess_queries
from ..core.result import EBRRResult
from ..core.update import UpdateStats, update_preprocess
from ..core.utility import BRRInstance
from ..datasets.cities import CityDataset
from ..datasets.registry import load_city
from ..demand.query import QuerySet
from ..eval.experiments import calibrated_alpha
from ..exceptions import ConfigurationError, DemandError
from ..network.engine import SearchEngine, engine_for
from ..transit.journey import JourneyPlanner


@dataclass(frozen=True)
class TenantSpec:
    """How one tenant is built and what its default plan looks like.

    Attributes:
        city: named synthetic city (see ``repro.datasets``).
        scale: linear dataset scale.
        max_stops: default ``K`` for ``/v1/plan`` requests that do not
            override it.
        max_adjacent_cost: default ``C`` likewise.
        alpha: utility trade-off; ``None`` calibrates it from the
            dataset exactly as the CLI does.
        cache_capacity: explicit engine LRU row-cache bound (``None``
            keeps the engine default) — the daemon's memory cap.
        seed: dataset generation seed override (``None`` = the city's
            default seed).
    """

    city: str
    scale: float = 0.1
    max_stops: int = 20
    max_adjacent_cost: float = 2.0
    alpha: Optional[float] = None
    cache_capacity: Optional[int] = None
    seed: Optional[int] = None


class Tenant:
    """One resident dataset plus its warm planning state.

    Mutating entry points (:meth:`apply_update`) and lazy builders are
    called only by the one request the service's admission controller
    lets run (see :class:`repro.serve.api.PlanService`), so the state
    here needs no locking of its own.
    """

    def __init__(self, name: str, spec: TenantSpec) -> None:
        self.name = name
        self.spec = spec
        self.dataset: CityDataset = load_city(
            spec.city, scale=spec.scale, seed=spec.seed
        )
        self.alpha: float = (
            spec.alpha if spec.alpha is not None else calibrated_alpha(self.dataset)
        )
        self.instance: BRRInstance = self.dataset.instance(self.alpha)
        self.engine: SearchEngine = engine_for(self.instance.network)
        if spec.cache_capacity is not None:
            self.engine.set_cache_capacity(spec.cache_capacity)
        self.preprocess: Optional[PreprocessResult] = None
        self.updates_applied = 0
        self.plans_served = 0
        self._default_plan: Optional[EBRRResult] = None
        self._journeys: Optional[JourneyPlanner] = None

    # -- configuration -------------------------------------------------

    def config(
        self,
        *,
        max_stops: Optional[int] = None,
        max_adjacent_cost: Optional[float] = None,
    ) -> EBRRConfig:
        """The tenant's planning config, with optional per-request
        ``K``/``C`` overrides (everything else is fixed per tenant so
        warm state stays valid)."""
        spec = self.spec
        return EBRRConfig(
            max_stops=spec.max_stops if max_stops is None else max_stops,
            max_adjacent_cost=(
                spec.max_adjacent_cost
                if max_adjacent_cost is None
                else max_adjacent_cost
            ),
            alpha=self.alpha,
        )

    # -- warm state ----------------------------------------------------

    def ensure_preprocess(self) -> PreprocessResult:
        """The resident Algorithm 2 result (computed on first use)."""
        if self.preprocess is None:
            self.preprocess = preprocess_queries(self.instance, engine=self.engine)
        return self.preprocess

    def warm(self) -> None:
        """Do the expensive derivations up front (boot-time warmup):
        preprocessing, the default plan, and the journey planner."""
        self.journey_planner()

    def plan(
        self,
        *,
        max_stops: Optional[int] = None,
        max_adjacent_cost: Optional[float] = None,
    ) -> EBRRResult:
        """Plan a route from warm state.  Default-config plans are
        cached until the next demand update; ``K``/``C`` overrides are
        planned fresh (still on the warm preprocessing + engine)."""
        default_shape = max_stops is None and max_adjacent_cost is None
        if default_shape and self._default_plan is not None:
            self.plans_served += 1
            return self._default_plan
        result = plan_route(
            self.instance,
            self.config(
                max_stops=max_stops, max_adjacent_cost=max_adjacent_cost
            ),
            preprocess=self.ensure_preprocess(),
            engine=self.engine,
        )
        self.plans_served += 1
        if default_shape:
            self._default_plan = result
        return result

    def journey_planner(self) -> JourneyPlanner:
        """The door-to-door planner over existing routes *plus* the
        tenant's default planned route (rebuilt after updates)."""
        if self._journeys is None:
            route = self.plan().route
            self._journeys = JourneyPlanner(
                self.dataset.transit.with_route(route)
            )
        return self._journeys

    # -- demand updates ------------------------------------------------

    def apply_update(
        self, add: Iterable[int], remove: Iterable[int]
    ) -> UpdateStats:
        """Apply a demand change through the incremental
        :func:`~repro.core.update.update_preprocess` path.

        ``add`` appends query-node occurrences; ``remove`` retires one
        occurrence each (a node not currently in the demand raises
        :class:`~repro.exceptions.DemandError`).  The resident
        preprocessing is repaired in place of a cold recomputation, and
        the cached plan/journey planner are invalidated.
        """
        nodes = list(self.instance.queries.nodes)
        for node in add:
            nodes.append(int(node))
        for node in remove:
            try:
                nodes.remove(int(node))
            except ValueError:
                raise DemandError(
                    f"cannot retire node {int(node)}: not in the current "
                    f"demand of {self.name!r}"
                ) from None
        queries = QuerySet(
            self.instance.network,
            nodes,
            name=f"{self.name}-v{self.updates_applied + 1}",
        )
        new_instance, new_preprocess, stats = update_preprocess(
            self.instance, self.ensure_preprocess(), queries
        )
        self.instance = new_instance
        self.preprocess = new_preprocess
        self.updates_applied += 1
        self._default_plan = None
        self._journeys = None
        return stats

    # -- introspection -------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The ``/v1/datasets`` row for this tenant."""
        stats = self.dataset.statistics()
        return {
            "name": self.name,
            "city": self.spec.city,
            "scale": self.spec.scale,
            "alpha": self.alpha,
            "max_stops": self.spec.max_stops,
            "max_adjacent_cost": self.spec.max_adjacent_cost,
            "kernel": self.engine.kernel_name,
            "nodes": stats["V"],
            "existing_stops": stats["S_existing"],
            "queries": len(self.instance.queries),
            "updates_applied": self.updates_applied,
            "warm": self.preprocess is not None,
        }

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` block: engine cache health and the
        ``search.total.*`` counters."""
        info = self.engine.cache_info()
        total = self.engine.total_stats()
        block: Dict[str, Any] = {
            "cache": {
                "capacity": self.engine.cache_capacity,
                "rows": info.rows,
                "points": info.points,
                "hits": info.hits,
                "misses": info.misses,
                "hit_rate": info.hit_rate,
                "evictions": info.evictions,
            },
            "plans_served": self.plans_served,
            "updates_applied": self.updates_applied,
            "warm": self.preprocess is not None,
        }
        for field, value in total.as_dict().items():
            block[f"search.total.{field}"] = value
        return block


class DatasetRegistry:
    """The daemon's named tenants, loaded once and kept resident."""

    def __init__(self) -> None:
        self._tenants: Dict[str, Tenant] = {}
        self._lock = threading.Lock()

    def add(
        self, spec: TenantSpec, *, name: Optional[str] = None, warm: bool = False
    ) -> Tenant:
        """Load and register a tenant (optionally warming it up front).

        Raises:
            ConfigurationError: when the name is already registered.
        """
        label = name if name is not None else spec.city
        with self._lock:
            if label in self._tenants:
                raise ConfigurationError(
                    f"dataset {label!r} is already registered"
                )
        tenant = Tenant(label, spec)
        if warm:
            tenant.warm()
        with self._lock:
            self._tenants[label] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        """Look a tenant up by name.

        Raises:
            KeyError: naming the known tenants, for a clean 404.
        """
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            known = ", ".join(sorted(self._tenants)) or "none"
            raise KeyError(
                f"unknown dataset {name!r} (serving: {known})"
            )
        return tenant

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def describe(self) -> List[Dict[str, Any]]:
        """The ``/v1/datasets`` body: one row per tenant, name order."""
        with self._lock:
            tenants = [self._tenants[name] for name in sorted(self._tenants)]
        return [tenant.describe() for tenant in tenants]
