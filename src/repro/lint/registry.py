"""The pluggable rule registry.

A *rule* is a small :class:`ast.NodeVisitor` subclass that inspects one
parsed file and reports :class:`~repro.lint.violations.Violation`\\ s
through its :class:`FileContext`.  Rules self-register with the
:func:`register` decorator; the analyzer instantiates every enabled rule
fresh per file, so visitor state never leaks between files.

Adding a rule is three steps: subclass :class:`Rule`, set ``rule_id`` /
``title`` / ``rationale``, and decorate with ``@register``.  Nothing
else in the package needs to change — the CLI, config handling,
suppressions, and reporters all key off the registry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Type

from .violations import Violation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .callgraph import CallGraph
    from .project import ProjectModel


@dataclass
class FileContext:
    """Everything a rule may look at for one file.

    Attributes:
        path: the file path as given to the analyzer (used in output and
            for path-scoped rules).
        tree: the parsed module.
        source_lines: the raw source split into lines (1-based access
            via ``source_lines[line - 1]``).
        violations: the sink rules report into.
    """

    path: str
    tree: ast.Module
    source_lines: List[str]
    violations: List[Violation] = field(default_factory=list)

    def report(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                rule_id=rule_id,
                message=message,
            )
        )


class Rule(ast.NodeVisitor):
    """Base class for all lint rules.

    Class attributes (set by subclasses):
        rule_id: stable identifier, ``RL`` + three digits.
        title: short name for ``--list-rules`` and the docs.
        rationale: one-line statement of the invariant the rule guards.

    A rule instance lives for exactly one file: the analyzer constructs
    it with the file's :class:`FileContext` and calls :meth:`run`.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def __init__(self, context: FileContext) -> None:
        self.context = context

    def run(self) -> None:
        """Visit the whole module (override for non-visitor rules)."""
        self.visit(self.context.tree)

    def report(self, node: ast.AST, message: str) -> None:
        self.context.report(node, self.rule_id, message)


class ProjectRule(Rule):
    """Base class for cross-module (whole-program) rules.

    Where a :class:`Rule` sees one file's AST, a project rule runs
    *once per analysis* against the resolved
    :class:`~repro.lint.project.ProjectModel` and reports violations
    attributed to whichever files the facts point at.  Subclasses
    override :meth:`check_project`; the per-file visitor machinery is
    inert for them (the analyzer never calls :meth:`Rule.run` on a
    project rule).

    Suppressions, config ``rule-excludes``, and ``--select`` apply to
    project-rule violations exactly as to per-file ones — filtering
    happens downstream on the reported path/line.
    """

    def __init__(self) -> None:  # no FileContext: the project is the scope
        self.violations: List[Violation] = []

    def check_project(self, model: "ProjectModel", graph: "CallGraph") -> None:
        raise NotImplementedError

    def report_at(
        self, path: str, line: int, column: int, message: str
    ) -> None:
        self.violations.append(
            Violation(
                path=path,
                line=line,
                column=column,
                rule_id=self.rule_id,
                message=message,
            )
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add ``cls`` to the global rule registry.

    Raises:
        ValueError: on a missing, malformed, or duplicate ``rule_id``.
    """
    rule_id = cls.rule_id
    if not (
        len(rule_id) == 5 and rule_id.startswith("RL") and rule_id[2:].isdigit()
    ):
        raise ValueError(f"rule id {rule_id!r} must look like 'RL007'")
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """All registered rules, keyed by id, in id order."""
    _load_builtin_rules()
    return dict(sorted(_REGISTRY.items()))


def file_rules() -> Dict[str, Type[Rule]]:
    """The per-file rules only (everything except project rules)."""
    return {
        rid: cls
        for rid, cls in all_rules().items()
        if not issubclass(cls, ProjectRule)
    }


def project_rules() -> Dict[str, Type[ProjectRule]]:
    """The cross-module rules only."""
    return {
        rid: cls
        for rid, cls in all_rules().items()
        if issubclass(cls, ProjectRule)
    }


def known_rule_ids() -> List[str]:
    """The sorted ids of every registered rule."""
    return sorted(all_rules())


def _load_builtin_rules() -> None:
    # Import for the registration side effect; deferred so that
    # ``import repro.lint`` stays cheap and so rules can import registry
    # without a cycle.
    from . import rules  # noqa: F401
