"""RL011 — every phase entry point runs under an obs span.

PR 5 threaded :mod:`repro.obs` spans through every EBRR phase so that
``--trace`` yields one complete picture and ``EBRRResult.timings`` is
*derived* from the measured spans.  That guarantee rots silently: a new
phase (or a refactor of an old one) that forgets its ``with span(...)``
still returns correct routes — only the trace goes blind.  This rule
makes the convention checkable.

An **entry point** is a public module-level function, defined under
``repro.core`` or ``repro.serve``, whose name
starts with one of the phase verbs (``plan``, ``run``, ``sweep``,
``preprocess``, ``update``, ``postprocess``, ``refine``, ``select``,
``order``, ``handle``, ``serve``) — the naming convention every phase
driver and request handler in this codebase already follows, so new
phases (and new service endpoints — each request must produce a
complete span tree for ``--trace-dir``) are covered the moment they
are named like one.

**Coverage** is transitive over the resolved call graph: the function
itself opens a span (``with span(...)`` / ``with tracing(...)`` /
``with <trace>.begin(...)`` / decorated ``@traced``), or something it
(statically) calls does.  ``plan_route`` is covered by its
``obs_trace.begin("plan_route", ...)`` block; a thin public wrapper is
covered by the phase function it delegates to.
"""

from __future__ import annotations

from ..callgraph import CallGraph
from ..project import FunctionFact, ProjectModel
from ..registry import ProjectRule, register

#: Package prefixes whose public functions are phase material.
PHASE_PACKAGES = ("repro.core.", "repro.serve.")

#: Leading verbs that mark a public function as a phase entry point.
PHASE_VERBS = (
    "plan",
    "run",
    "sweep",
    "preprocess",
    "update",
    "postprocess",
    "refine",
    "select",
    "order",
    "handle",
    "serve",
)


def _is_entry_point(module: str, fact: FunctionFact) -> bool:
    if not fact.is_public:
        return False
    if not any((module + ".").startswith(pkg) for pkg in PHASE_PACKAGES):
        return False
    head = fact.name.split("_")[0]
    return head in PHASE_VERBS


@register
class SpanCoverageRule(ProjectRule):
    rule_id = "RL011"
    title = "span-coverage"
    rationale = (
        "public phase entry points (plan_/run_/sweep_/handle_/... "
        "under repro.core and repro.serve) must run "
        "under an obs span — directly or via a callee — so traces, "
        "derived timings, and per-request span trees cannot silently "
        "lose a phase"
    )

    def check_project(self, model: ProjectModel, graph: CallGraph) -> None:
        for module in sorted(model.modules):
            facts = model.modules[module]
            for fact in facts.functions:
                if not _is_entry_point(module, fact):
                    continue
                if graph.reaches(fact.qname, lambda f: f.has_span):
                    continue
                self.report_at(
                    facts.path, fact.lineno, fact.col,
                    f"phase entry point {fact.name!r} neither opens an "
                    "obs span nor calls anything that does; wrap the "
                    "phase body in `with span(...)` (or @traced) so the "
                    "trace keeps covering it",
                )
