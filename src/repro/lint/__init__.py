"""reprolint — static enforcement of this repo's architectural invariants.

Every graph search goes through the cached
:class:`~repro.network.engine.SearchEngine`, so correctness rests on
conventions (no kernel bypasses, version-bumped graph mutation,
deterministic iteration, tolerant float comparison, clock reads owned
by the trace, span-covered phases, kernel-confined hot loops) that code
review alone cannot guarantee.  This package turns them into CI
failures, one rule per invariant:

* ``python -m repro.lint [paths]`` or ``repro lint [paths]`` (the same
  command line);
* per-file rules RL002–RL009 plus cross-module rules RL011–RL012 built
  on a whole-program :class:`~repro.lint.project.ProjectModel` and call
  graph (see ``--list-rules`` and DESIGN.md);
* output formats ``text``, ``json``, ``github`` (inline PR annotations);
* per-line ``# reprolint : disable=RL003`` and per-file
  ``# reprolint : disable-file=RL007`` suppressions (space added here
  so the docstring is not itself a directive) — stale ones are
  reported as unused, and :func:`run_lint` counts them per rule so the
  repo's test suite can pin the count;
* repo policy in ``pyproject.toml`` under ``[tool.reprolint]``.

The analyzer is stdlib-only (``ast`` + optional ``tomllib``) so the
lint gate runs on any interpreter the package supports.
"""

from .analyzer import (
    LintRun,
    check_paths,
    check_source,
    check_sources,
    iter_python_files,
    run_lint,
)
from .callgraph import CallGraph
from .cli import main
from .config import LintConfig, load_config
from .project import FileFacts, ProjectModel, extract_facts, module_name_for
from .registry import (
    FileContext,
    ProjectRule,
    Rule,
    all_rules,
    known_rule_ids,
    register,
)
from .report import render
from .violations import META_RULE_ID, Violation

__all__ = [
    "META_RULE_ID",
    "CallGraph",
    "FileContext",
    "FileFacts",
    "LintConfig",
    "LintRun",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_rules",
    "check_paths",
    "check_source",
    "check_sources",
    "extract_facts",
    "iter_python_files",
    "known_rule_ids",
    "load_config",
    "main",
    "module_name_for",
    "register",
    "render",
    "run_lint",
]
