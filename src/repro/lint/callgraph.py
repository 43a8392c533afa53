"""Call-graph queries over the :class:`~repro.lint.project.ProjectModel`.

Edges are the statically-resolvable call references the facts pass
recorded: ``caller qname → callee qname`` whenever
:meth:`ProjectModel.resolve` can trace the dotted callee through the
caller module's imports or local symbols.  Method calls on dynamic
values (``engine.query_search``) have no edge — the graph
under-approximates, so reachability answers are "definitely reachable",
never "maybe".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Set, Tuple

from .project import FunctionFact, ProjectModel


class CallGraph:
    """Resolved call edges plus the standard reachability queries."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self._callees: Dict[str, List[Tuple[str, int]]] = {}
        for module, facts in model.modules.items():
            for fact in facts.functions:
                edges: List[Tuple[str, int]] = []
                for dotted, lineno in fact.calls:
                    target = model.resolve(module, dotted)
                    if target is not None and target != fact.qname:
                        edges.append((target, lineno))
                self._callees[fact.qname] = edges

    def callees(self, qname: str) -> List[str]:
        """Functions ``qname`` directly calls (deduplicated, in call order)."""
        seen: List[str] = []
        for target, _ in self._callees.get(qname, []):
            if target not in seen:
                seen.append(target)
        return seen

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Every function reachable from ``roots`` (roots included,
        when known to the model)."""
        frontier = deque(q for q in roots if q in self.model.functions)
        reached: Set[str] = set(frontier)
        while frontier:
            current = frontier.popleft()
            for target in self.callees(current):
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        return reached

    def reaches(
        self, qname: str, predicate: Callable[[FunctionFact], bool]
    ) -> bool:
        """Whether ``qname`` or anything reachable from it satisfies
        ``predicate`` (a function of :class:`FunctionFact`)."""
        for reached in self.reachable_from([qname]):
            fact = self.model.functions.get(reached)
            if fact is not None and predicate(fact):
                return True
        return False
