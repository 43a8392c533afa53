"""RL002 — road networks are immutable; nothing outside graph.py writes them.

A :class:`RoadNetwork` is built once by its constructor and never
changes, which is what lets the engine build its CSR snapshot once and
keep every cached search row for its lifetime.  Code that writes to a
network's adjacency/edge/coordinate internals changes the graph behind
the engine's back, and every subsequent search silently answers against
the old topology.  This rule flags writes — assignments, augmented
assignments, deletes, and mutating method calls — that reach a protected
attribute.  ``network/graph.py`` itself is excluded by config (its
constructor builds the internals).
"""

from __future__ import annotations

import ast
from typing import Optional

from ..registry import Rule, register

#: RoadNetwork internals no outside code may write to.
PROTECTED_ATTRIBUTES = frozenset({"_adj", "_edge_costs", "_coords"})

#: Method names that mutate a list/dict in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
    }
)


def _protected_attribute(node: ast.AST) -> Optional[ast.Attribute]:
    """The first *foreign* protected-attribute access inside ``node``.

    ``self._coords = ...`` is an object defining its own state (several
    classes legitimately keep their own ``_coords``); the hazard this
    rule guards is reaching into **another** object's graph internals
    (``network._adj``, ``self._network._edge_costs``, ...).
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in PROTECTED_ATTRIBUTES:
            base = sub.value
            if isinstance(base, ast.Name) and base.id == "self":
                continue
            return sub
    return None


@register
class CacheInvalidationRule(Rule):
    rule_id = "RL002"
    title = "cache-invalidation-hazard"
    rationale = (
        "RoadNetwork is immutable: its adjacency/edge/coordinate internals "
        "are written only by its constructor in graph.py; any other write "
        "leaves the SearchEngine's CSR and cache silently stale"
    )

    def _check_write_target(self, target: ast.AST) -> None:
        hit = _protected_attribute(target)
        if hit is not None:
            self.report(
                hit,
                f"write to graph internal '{hit.attr}' outside "
                "network/graph.py; a RoadNetwork is immutable, so build a "
                "new one instead",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_write_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_write_target(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            hit = _protected_attribute(func.value)
            if hit is not None:
                self.report(
                    hit,
                    f"mutating call .{func.attr}() on graph internal "
                    f"'{hit.attr}' outside network/graph.py; a RoadNetwork "
                    "is immutable, so build a new one instead",
                )
        self.generic_visit(node)
