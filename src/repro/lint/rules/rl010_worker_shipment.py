"""RL010 — worker-shipment safety for the process-pool layer.

``repro.parallel`` ships callables and arguments across process
boundaries; three properties keep that safe, and all three are
invisible to per-file analysis:

1. **Picklable entry points.**  A pool submission (``pool.map(f, ...)``
   or ``Pool(initializer=f)``) must name a module-level function.
   Lambdas and nested defs fail to pickle under ``spawn`` and silently
   *work* under ``fork`` — until the platform changes; bound-method /
   attribute callables drag their whole instance through the pickle.
2. **No live engines over the wire.**  A
   :class:`~repro.network.engine.SearchEngine` holds per-process caches
   and a stats ledger; pickling one into ``initargs`` forks state the
   parent still mutates.  Workers build their own engine from the
   (engine-free) network pickle — that is what the pool initializers
   are for.
3. **No module-global mutation in tasks.**  Anything reachable from a
   *task* callable that rebinds a module global is a fork-safety race:
   under ``fork`` the write aliases the parent's module dict layout,
   under ``spawn`` it diverges per worker, and either way the result
   depends on which worker ran the chunk.  Per-process worker state is
   installed exactly once, by the pool *initializer* — initializers are
   therefore exempt.

Reachability is the resolved static call graph, so the rule follows
``_run_sweep_task → plan_route → …`` across modules.  Worker-side
trace shipping (:mod:`repro.obs.collect` draining its shard marks) is
sanctioned per-process state management and excluded by path in
``[tool.reprolint.rule-excludes]``.
"""

from __future__ import annotations

from typing import List, Tuple

from ..callgraph import CallGraph
from ..project import ProjectModel, SubmissionFact
from ..registry import ProjectRule, register


@register
class WorkerShipmentRule(ProjectRule):
    rule_id = "RL010"
    title = "worker-shipment-safety"
    rationale = (
        "pool submissions must ship module-level picklable functions, "
        "never a live SearchEngine, and nothing reachable from a pool "
        "task may mutate module globals (per-process state belongs to "
        "the pool initializer)"
    )

    def check_project(self, model: ProjectModel, graph: CallGraph) -> None:
        task_roots: List[Tuple[str, SubmissionFact, str]] = []
        for module, facts in model.modules.items():
            if not facts.imports_pools:
                continue
            for sub in facts.submissions:
                self._check_callable(model, module, facts.path, sub)
                self._check_shipped_args(model, module, facts.path, sub)
                if sub.kind == "task" and sub.callee_kind == "name":
                    resolved = model.resolve(
                        module, sub.callee, scope=sub.in_function
                    )
                    if resolved is not None:
                        task_roots.append((resolved, sub, module))
        self._check_task_reachability(model, graph, task_roots)

    # -- property 1: picklable entry points ---------------------------

    def _check_callable(
        self, model: ProjectModel, module: str, path: str, sub: SubmissionFact
    ) -> None:
        what = "pool task" if sub.kind == "task" else "pool initializer"
        if sub.callee_kind == "lambda":
            self.report_at(
                path, sub.lineno, sub.col,
                f"{what} is a lambda; workers need a module-level "
                "function (lambdas do not pickle under spawn)",
            )
        elif sub.callee_kind == "attribute":
            self.report_at(
                path, sub.lineno, sub.col,
                f"{what} {sub.callee!r} is a bound-method/attribute "
                "callable; ship a module-level function so the pickle "
                "does not drag the whole instance across the pool",
            )
        elif sub.callee_kind == "name":
            resolved = model.resolve(module, sub.callee, scope=sub.in_function)
            fact = model.functions.get(resolved) if resolved else None
            if fact is not None and fact.nested:
                self.report_at(
                    path, sub.lineno, sub.col,
                    f"{what} {sub.callee!r} is a nested function "
                    f"(defined at line {fact.lineno}); pool entry "
                    "points must be module-level to pickle",
                )

    # -- property 2: no live engines shipped --------------------------

    def _check_shipped_args(
        self, model: ProjectModel, module: str, path: str, sub: SubmissionFact
    ) -> None:
        if sub.arg_engine_call:
            self.report_at(
                path, sub.lineno, sub.col,
                "pool arguments construct a live SearchEngine; workers "
                "must build their own engine from the network pickle "
                "(see the pool initializer in repro.parallel.sweep)",
            )
            return
        enclosing = (
            model.functions.get(sub.in_function) if sub.in_function else None
        )
        if enclosing is None:
            return
        shipped_engines = sorted(
            set(sub.arg_names) & set(enclosing.engine_locals)
        )
        if shipped_engines:
            self.report_at(
                path, sub.lineno, sub.col,
                f"pool arguments ship live SearchEngine value(s) "
                f"{', '.join(shipped_engines)}; engines hold per-process "
                "caches and stats — pass the network and rebuild in the "
                "worker initializer",
            )

    # -- property 3: no global mutation reachable from tasks ----------

    def _check_task_reachability(
        self,
        model: ProjectModel,
        graph: CallGraph,
        task_roots: List[Tuple[str, SubmissionFact, str]],
    ) -> None:
        if not task_roots:
            return
        root_names = {qname for qname, _, _ in task_roots}
        for qname in sorted(graph.reachable_from(root_names)):
            fact = model.functions[qname]
            if not fact.global_writes:
                continue
            owner = model.module_of(qname)
            path = model.path_of.get(owner) if owner is not None else None
            if path is None:
                continue
            self.report_at(
                path, fact.lineno, fact.col,
                f"{fact.name!r} rebinds module global(s) "
                f"{', '.join(sorted(fact.global_writes))} and is "
                "reachable from a pool task submission; per-process "
                "state may only be installed by a pool initializer",
            )
