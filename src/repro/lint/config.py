"""``[tool.reprolint]`` configuration loaded from ``pyproject.toml``.

The config answers two questions the rules themselves cannot: which
rules this repo wants (``disable``), and where an invariant legitimately
does not apply (``exclude`` globally, ``[tool.reprolint.rule-excludes]``
per rule).  The canonical example is RL009: the engine and the kernels
package *are* the sanctioned importers of the kernel backends, so they
are excluded from the kernel-confinement rule by path rather than by
littering them with inline suppressions.

TOML parsing is gated: ``tomllib`` (3.11+) or ``tomli`` when available,
otherwise the analyzer silently runs with defaults — the lint pass must
work on every interpreter the package supports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any, Dict, List, Optional

try:  # pragma: no cover - trivial import dance
    import tomllib as _toml  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover
    try:
        import tomli as _toml  # type: ignore[import-not-found, no-redef]
    except ImportError:
        _toml = None  # type: ignore[assignment]


@dataclass
class LintConfig:
    """Resolved reprolint configuration.

    Attributes:
        disable: rule ids turned off repo-wide.
        include: default paths to lint when the CLI is given none,
            relative to ``root`` (``["src"]`` when unset).
        exclude: glob patterns (posix separators) of paths no rule runs
            on, matched against the path relative to ``root``.
        rule_excludes: per-rule glob patterns — the rule is skipped for
            matching files only.
        root: directory the patterns are relative to (where
            ``pyproject.toml`` was found), or ``None`` for defaults.
    """

    disable: List[str] = field(default_factory=list)
    include: List[str] = field(default_factory=list)
    exclude: List[str] = field(default_factory=list)
    rule_excludes: Dict[str, List[str]] = field(default_factory=dict)
    root: Optional[str] = None

    def default_paths(self) -> List[str]:
        """The paths a bare ``repro lint`` invocation covers: the
        configured ``include`` list resolved against ``root``, or
        ``["src"]`` when nothing is configured."""
        if not self.include:
            return ["src"]
        if self.root is None:
            return list(self.include)
        return [os.path.join(self.root, path) for path in self.include]

    def rule_enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disable

    def _normalize(self, path: str) -> str:
        if self.root is not None:
            try:
                path = os.path.relpath(os.path.abspath(path), self.root)
            except ValueError:  # pragma: no cover - windows drive mismatch
                pass
        return path.replace(os.sep, "/")

    def path_excluded(self, path: str) -> bool:
        """Whether no rule at all should run on ``path``."""
        return _matches_any(self._normalize(path), self.exclude)

    def rule_applies(self, rule_id: str, path: str) -> bool:
        """Whether ``rule_id`` should run on ``path``."""
        if not self.rule_enabled(rule_id):
            return False
        patterns = self.rule_excludes.get(rule_id, [])
        return not _matches_any(self._normalize(path), patterns)


def _matches_any(path: str, patterns: List[str]) -> bool:
    # A pattern matches the relative path outright, or any suffix of it
    # ("network/graph.py" matches "src/repro/network/graph.py").
    return any(
        fnmatch(path, pattern) or fnmatch(path, "*/" + pattern)
        for pattern in patterns
    )


def find_pyproject(start: str) -> Optional[str]:
    """The nearest ``pyproject.toml`` at or above ``start``."""
    directory = os.path.abspath(start)
    while True:
        candidate = os.path.join(directory, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def load_config(start: str = ".") -> LintConfig:
    """Load ``[tool.reprolint]`` from the nearest ``pyproject.toml``.

    Missing file, missing table, or an interpreter without a TOML parser
    all yield the all-defaults config (every rule on everywhere).
    """
    pyproject = find_pyproject(start)
    if pyproject is None or _toml is None:
        return LintConfig()
    with open(pyproject, "rb") as handle:
        data = _toml.load(handle)
    table = data.get("tool", {}).get("reprolint", {})
    return config_from_table(table, root=os.path.dirname(pyproject))


def config_from_table(table: Dict[str, Any], root: Optional[str] = None) -> LintConfig:
    """Build a :class:`LintConfig` from an already-parsed TOML table."""
    rule_excludes = {
        str(rule_id): [str(p) for p in patterns]
        for rule_id, patterns in table.get("rule-excludes", {}).items()
    }
    return LintConfig(
        disable=[str(r) for r in table.get("disable", [])],
        include=[str(p) for p in table.get("include", [])],
        exclude=[str(p) for p in table.get("exclude", [])],
        rule_excludes=rule_excludes,
        root=root,
    )
