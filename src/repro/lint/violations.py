"""The unit of lint output: one rule firing at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

#: Meta rule id used for problems with the lint run itself (syntax
#: errors, unknown rule ids inside suppression comments).  It cannot be
#: suppressed or disabled.
META_RULE_ID = "RL000"


@dataclass(frozen=True, order=True)
class Violation:
    """One invariant violation at one source location.

    Attributes:
        path: the file the violation is in, as given to the analyzer.
        line / column: 1-based line and 0-based column of the offending
            node (``ast`` conventions).
        rule_id: the rule that fired, e.g. ``"RL007"``.
        message: a human-readable explanation with the fix direction.
    """

    path: str
    line: int
    column: int
    rule_id: str
    message: str

    def as_dict(self) -> Dict[str, Union[str, int]]:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "message": self.message,
        }

    def format(self) -> str:
        """The canonical one-line rendering (``path:line:col: RLxxx msg``)."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule_id} {self.message}"
