"""RL012 — kernel hot loops are confined to ``repro.network.kernels``.

ROADMAP item 2 is the raw-speed push: full-scale cities need the search
inner loops vectorized, and PR 6 built the place for them — the
:mod:`repro.network.kernels` backends behind the engine.  The failure
mode this rule guards against is *regression by convenience*: new code
(or a quick fix) iterating the CSR flat-adjacency views
(``indptr``/``targets``/``costs`` and their ``np_*`` twins) or the
per-node adjacency dict (``_adj``) in a Python-level ``for``/``while``
loop, re-growing exactly the interpreter-bound hot paths the vectorized
backend exists to absorb.

Detection is the facts pass's loop records: the **innermost** loop of a
nest whose header or body reads one of those attributes, in any module
outside the kernels package.  The sanctioned substrate (``engine.py``,
``csr.py``, ``graph.py``) is excluded by path in
``[tool.reprolint.rule-excludes]``; the one known pre-existing hot loop
(``transit/journey.py``) carries an inline suppression; the test suite
pins the per-rule suppression counts, so such suppressions may only
disappear, never multiply.
"""

from __future__ import annotations

from ..callgraph import CallGraph
from ..project import ProjectModel
from ..registry import ProjectRule, register

_KERNELS_PACKAGE = "repro.network.kernels"


@register
class HotLoopConfinementRule(ProjectRule):
    rule_id = "RL012"
    title = "kernel-hot-loop-confinement"
    rationale = (
        "Python for/while loops over CSR views (indptr/targets/costs) "
        "or the per-node adjacency dict belong in the "
        "repro.network.kernels backends; route the search through the "
        "engine so the vectorized kernel can own the inner loop"
    )

    def check_project(self, model: ProjectModel, graph: CallGraph) -> None:
        for module in sorted(model.modules):
            if module == _KERNELS_PACKAGE or module.startswith(
                _KERNELS_PACKAGE + "."
            ):
                continue
            facts = model.modules[module]
            for loop in facts.loops:
                where = (
                    f" in {loop.in_function.rsplit('.', 1)[-1]!r}"
                    if loop.in_function
                    else ""
                )
                self.report_at(
                    facts.path, loop.lineno, loop.col,
                    f"python {loop.kind}-loop{where} iterates CSR/"
                    f"adjacency state ({', '.join(loop.touches)}) "
                    "outside repro.network.kernels; use an engine "
                    "primitive (sssp/bounded/multi-source/nodes_within) "
                    "or add a kernel method so the vectorized backend "
                    "owns this loop",
                )
