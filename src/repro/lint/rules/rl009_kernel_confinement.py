"""RL009 — kernel backends are confined behind the engine.

The :mod:`repro.network.kernels` package is the *algorithmic substrate*
of the search layer — raw Dijkstra loops with no caching, no stats
ledger, and no snapshot invalidation.  Calling a kernel directly
re-opens every hole :class:`SearchEngine` closed: redundant searches,
invisible work, stale CSR reads, and results that silently diverge
from the profile the engine reports.  Only ``network/engine.py`` (the
orchestrator) and the kernels package itself may import it; everyone
else selects a backend *by name* where the engine is built —
``SearchEngine(network, kernel=...)`` or ``$REPRO_KERNEL`` — and uses
the helpers the engine re-exports (``available_kernels``,
``resolve_kernel``, ``KERNEL_IDS``).  The sanctioned importers are
excluded via ``[tool.reprolint.rule-excludes]``.
"""

from __future__ import annotations

import ast

from ..registry import Rule, register

_PACKAGE = "repro.network.kernels"

#: Names that exist only inside the kernels package; importing them from
#: anywhere (even via the engine re-export) means code is about to hold
#: a raw backend.  The engine's re-exported *name-based* helpers
#: (``available_kernels``, ``resolve_kernel``, ``KERNEL_IDS``) are fine.
_KERNEL_CLASSES = frozenset({"PythonKernel", "VectorizedKernel"})


@register
class KernelConfinementRule(Rule):
    rule_id = "RL009"
    title = "kernel-confinement"
    rationale = (
        "search-kernel backends (repro.network.kernels) are raw, "
        "uncached, unaccounted search loops; only the SearchEngine may "
        "drive them — select a backend by name via "
        "SearchEngine(kernel=...) / $REPRO_KERNEL instead"
    )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == _PACKAGE or alias.name.startswith(_PACKAGE + "."):
                self.report(
                    node,
                    f"direct import of {alias.name}; kernels are engine "
                    "internals — select a backend by name "
                    "(SearchEngine(kernel=...) / $REPRO_KERNEL)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        parts = module.split(".")
        # Absolute or relative spelling of the package or its modules
        # (``from repro.network.kernels.vectorized import ...``,
        # ``from ..network.kernels import ...``, ``from .kernels import
        # ...``).
        if (
            module == _PACKAGE
            or module.startswith(_PACKAGE + ".")
            or "kernels" in parts
        ):
            self.report(
                node,
                "import from the kernels package; kernels are engine "
                "internals — select a backend by name "
                "(SearchEngine(kernel=...) / $REPRO_KERNEL)",
            )
        # Concrete backend classes leaked through a re-export, e.g.
        # ``from repro.network.engine import PythonKernel``.
        else:
            leaked = sorted(
                alias.name
                for alias in node.names
                if alias.name in _KERNEL_CLASSES
            )
            if leaked:
                self.report(
                    node,
                    f"import of kernel backend class(es) {', '.join(leaked)}; "
                    "select a backend by name "
                    "(SearchEngine(kernel=...) / $REPRO_KERNEL)",
                )
        self.generic_visit(node)
