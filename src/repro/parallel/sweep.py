"""Batched parameter sweeps over a shared Algorithm 2 preprocessing.

The evaluation section of the paper varies one knob at a time — ``K``,
``C``, the ablation switches — against a fixed problem instance, and
every such run repeats the identical preprocessing before diverging.
:func:`sweep_plans` computes that preprocessing once, ships it to a
process pool together with the (engine-free) instance pickle, and fans
the per-config :func:`~repro.core.ebrr.plan_route` calls across
workers.  Results come back in config order regardless of which worker
finished first, and each result's per-phase search stats are folded
into the caller's engine so ``--profile-searches`` reports every
search the workers actually ran.  The shared ``preprocess`` totals
match a serial sweep exactly; cache-warmed phases (ordering,
refinement) may record somewhat *more* work than a serial sweep,
because workers cannot share one result cache across the grid — the
routes themselves are identical either way.

Alpha grids are supported only insofar as :func:`plan_route` allows:
``config.alpha`` must match ``instance.alpha``, so an α sweep needs one
instance (and one sweep call) per α value.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.context
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import EBRRConfig
from ..core.ebrr import plan_route
from ..core.preprocess import PreprocessResult, preprocess_queries
from ..core.result import EBRRResult
from ..core.utility import BRRInstance
from ..exceptions import ConfigurationError
from ..network.engine import SearchEngine, SearchStats, engine_for
from ..obs import current_trace, span
from ..obs.collect import TraceShard, begin_worker_trace, drain_shard, merge_shard
from ..store import RunStore, store_from_env

# Per-process sweep state, installed once by the pool initializer.  A
# module global is the multiprocessing idiom: the initializer runs in
# the child process, so nothing here is ever shared between processes.
_SWEEP_INSTANCE: Optional[BRRInstance] = None
_SWEEP_PREPROCESS: Optional[PreprocessResult] = None
_SWEEP_TRACING = False

SweepTask = Tuple[EBRRConfig, str]


def resolve_workers(workers: int) -> int:
    """Validate a worker count (``>= 1``; 1 means serial)."""
    count = int(workers)
    if count < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return count


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context of the sweep pool: ``fork`` where the
    platform offers it (cheap on Linux — no re-import, copy-on-write
    pages), the default otherwise, which works because the worker entry
    points are module-level functions with picklable arguments."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _init_sweep_worker(
    instance: BRRInstance,
    preprocess: PreprocessResult,
    tracing: bool = False,
) -> None:
    """Pool initializer: unpickle the shared instance + preprocessing
    once per worker process; install a worker trace when the parent is
    tracing."""
    global _SWEEP_INSTANCE, _SWEEP_PREPROCESS, _SWEEP_TRACING
    _SWEEP_INSTANCE = instance
    _SWEEP_PREPROCESS = preprocess
    _SWEEP_TRACING = tracing
    if tracing:
        begin_worker_trace()


def _run_sweep_task(task: SweepTask) -> Tuple[EBRRResult, Optional[TraceShard]]:
    """Worker entry point: one full EBRR run for one config.

    With tracing on, the run's spans and metrics (``plan_route`` records
    its ``search.*`` profile into the worker trace) come back as a
    shard; the parent merges shards verbatim, so sweep metric totals are
    exactly what the workers measured — never re-recorded.
    """
    instance, preprocess = _SWEEP_INSTANCE, _SWEEP_PREPROCESS
    if instance is None or preprocess is None:  # pragma: no cover - pool misuse
        raise ConfigurationError("sweep worker used before initialization")
    config, route_id = task
    result = plan_route(instance, config, preprocess=preprocess, route_id=route_id)
    return result, (drain_shard() if _SWEEP_TRACING else None)


def sweep_plans(
    instance: BRRInstance,
    configs: Sequence[EBRRConfig],
    *,
    workers: int = 1,
    preprocess: Optional[PreprocessResult] = None,
    route_ids: Optional[Sequence[str]] = None,
    engine: Optional[SearchEngine] = None,
    store: Optional[RunStore] = None,
    dataset: Optional[str] = None,
) -> List[EBRRResult]:
    """Plan one route per config, sharing a single preprocessing.

    Args:
        instance: the BRR instance all configs run against.
        configs: the parameter grid (e.g. one :class:`EBRRConfig` per
            ``K`` value).  Every ``config.alpha`` must equal
            ``instance.alpha`` (:func:`plan_route` enforces this).
        workers: process-pool size; ``1`` (the default) runs the serial
            loop in-process — identical results, no pool.
        preprocess: reuse an existing Algorithm 2 result; computed once
            here when omitted.
        route_ids: route identifier per config; defaults to
            ``sweep-0 .. sweep-(n-1)``.
        engine: the engine whose ``preprocess`` profile the shared
            preprocessing (and, for parallel runs, the workers' search
            work) is accounted to; defaults to the network's shared one.
        store: experiment store to record one run row per swept config
            into (metrics + worker stats folded in); defaults to the
            ``$REPRO_STORE`` opt-in, so sweeps are recorded whenever
            the environment asks for it.
        dataset: dataset label for the recorded runs.

    Returns:
        The :class:`EBRRResult` list, index-aligned with ``configs``.
    """
    workers = resolve_workers(workers)
    if route_ids is None:
        route_ids = [f"sweep-{i}" for i in range(len(configs))]
    if len(route_ids) != len(configs):
        raise ConfigurationError(
            f"route_ids has {len(route_ids)} entries for {len(configs)} configs"
        )
    if engine is None:
        engine = engine_for(instance.network)
    if preprocess is None:
        preprocess = preprocess_queries(instance, engine=engine)
    tasks: List[SweepTask] = list(zip(configs, route_ids))
    if not tasks:
        return []
    if workers == 1:
        with span("sweep", configs=len(tasks), workers=1):
            results = [
                plan_route(
                    instance,
                    config,
                    preprocess=preprocess,
                    route_id=route_id,
                    engine=engine,
                )
                for config, route_id in tasks
            ]
        _record_sweep_runs(store, results, tasks, workers=1, dataset=dataset)
        return results
    parent_trace = current_trace()
    results: List[EBRRResult] = []
    with span("sweep", configs=len(tasks), workers=workers) as sweep_span:
        sweep_index = sweep_span.span.index if parent_trace is not None else None
        with pool_context().Pool(
            processes=min(workers, len(tasks)),
            initializer=_init_sweep_worker,
            initargs=(instance, preprocess, parent_trace is not None),
        ) as pool:
            # map preserves task order, so shards merge deterministically.
            for result, shard in pool.map(_run_sweep_task, tasks):
                results.append(result)
                if shard is not None and parent_trace is not None:
                    merge_shard(parent_trace, shard, parent=sweep_index)
    _fold_back_stats(engine, results)
    _record_sweep_runs(store, results, tasks, workers=workers, dataset=dataset)
    return results


def _record_sweep_runs(
    store: Optional[RunStore],
    results: Sequence[EBRRResult],
    tasks: Sequence[SweepTask],
    *,
    workers: int,
    dataset: Optional[str],
) -> None:
    """One experiment-store row per swept config: quality metrics, phase
    timings, and the worker search stats folded into ``search.*`` keys.

    Recording happens in the parent after the pool has drained — the
    store handle is never shipped to workers, and a sweep whose
    environment opts out (``$REPRO_STORE`` unset, no explicit store)
    costs nothing.
    """
    owned = False
    if store is None:
        store = store_from_env()
        owned = True
    if store is None:
        return
    try:
        for (config, route_id), result in zip(tasks, results):
            metrics: Dict[str, object] = {
                "K": config.max_stops,
                "C": config.max_adjacent_cost,
                "alpha": config.alpha,
                "workers": workers,
                "utility": result.metrics.utility,
                "walk_cost": result.metrics.walk_cost,
                "connectivity": result.metrics.connectivity,
                "num_stops": result.metrics.num_stops,
                "route_length": result.metrics.route_length,
                "feasible": result.is_feasible,
            }
            for phase, seconds in sorted(result.timings.items()):
                metrics[f"time.{phase}_s"] = seconds
            for phase, stats in sorted(result.search_stats.items()):
                metrics[f"search.{phase}.searches"] = stats.searches
                metrics[f"search.{phase}.settled"] = stats.settled
            store.record_run(
                "sweep",
                route_id,
                dataset=dataset,
                config=config,
                metrics=metrics,
            )
    finally:
        if owned:
            store.close()


def _fold_back_stats(
    engine: SearchEngine, results: Sequence[EBRRResult]
) -> None:
    """Fold each worker run's per-phase search stats into the caller's
    engine, matching what a serial sweep would have recorded there."""
    totals: Dict[str, SearchStats] = {}
    for result in results:
        for phase, stats in result.search_stats.items():
            if phase in totals:
                totals[phase] = totals[phase] + stats
            else:
                totals[phase] = stats.copy()
    for phase, stats in totals.items():
        engine.absorb(phase, stats)
