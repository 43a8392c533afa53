"""Inline ``# reprolint: disable=...`` suppression comments.

Two scopes (shown with a space before the colon so these docstring
examples are not parsed as live directives by the line scanner):

* line — ``x = risky()  # reprolint : disable=RL003`` silences the
  named rules for violations reported *on that line*;
* file — a standalone ``# reprolint : disable-file=RL007`` comment
  anywhere in the file (conventionally at the top) silences the named
  rules for the whole file.

A suppression naming a rule id that does not exist is itself reported
(as the :data:`~repro.lint.violations.META_RULE_ID` meta rule): a typo
in a suppression would otherwise silently disable nothing while looking
like it disabled something.  A suppression naming a rule that no longer
fires where the comment sits is reported the same way (unused
suppression) — stale pragmas cannot accumulate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set

from .violations import META_RULE_ID, Violation

_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*(?P<scope>disable(?:-file)?)\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Directive:
    """One rule id named by one suppression comment.

    A comment naming two rules yields two directives — the unit the
    unused-suppression check and the per-rule suppression counts use.
    """

    lineno: int
    column: int
    rule_id: str
    scope: str  # "line" | "file"


@dataclass
class SuppressionTable:
    """Parsed suppressions of one file.

    Attributes:
        by_line: rule ids silenced per 1-based line number.
        whole_file: rule ids silenced for every line.
        directives: every individual (line, rule) suppression, for the
            unused-suppression check and the per-rule counts.
        problems: violations about the suppressions themselves
            (unknown rule ids).
    """

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    whole_file: Set[str] = field(default_factory=set)
    directives: List[Directive] = field(default_factory=list)
    problems: List[Violation] = field(default_factory=list)

    def is_suppressed(self, violation: Violation) -> bool:
        if violation.rule_id == META_RULE_ID:
            return False  # meta diagnostics cannot be silenced
        if violation.rule_id in self.whole_file:
            return True
        return violation.rule_id in self.by_line.get(violation.line, set())


def parse_suppressions(
    path: str, source_lines: Sequence[str], known_ids: Iterable[str]
) -> SuppressionTable:
    """Scan ``source_lines`` for reprolint directives.

    Args:
        path: file path, for the unknown-id diagnostics.
        source_lines: the file's lines (no trailing newlines required).
        known_ids: every registered rule id; anything else named in a
            directive is reported.
    """
    # The meta id is recognized (not "unknown") but has no effect:
    # is_suppressed never silences meta diagnostics.
    known = set(known_ids) | {META_RULE_ID}
    table = SuppressionTable()
    for lineno, line in enumerate(source_lines, start=1):
        match = _DIRECTIVE.search(line)
        if match is None:
            continue
        ids = {part.strip() for part in match.group("ids").split(",") if part.strip()}
        unknown = sorted(ids - known)
        for bad in unknown:
            table.problems.append(
                Violation(
                    path=path,
                    line=lineno,
                    column=match.start(),
                    rule_id=META_RULE_ID,
                    message=(
                        f"suppression names unknown rule id {bad!r} "
                        f"(known: {', '.join(sorted(known))})"
                    ),
                )
            )
        valid = ids & known
        scope = "file" if match.group("scope") == "disable-file" else "line"
        for rule_id in sorted(valid):
            table.directives.append(
                Directive(
                    lineno=lineno,
                    column=match.start(),
                    rule_id=rule_id,
                    scope=scope,
                )
            )
        if scope == "file":
            table.whole_file |= valid
        else:
            table.by_line.setdefault(lineno, set()).update(valid)
    return table
