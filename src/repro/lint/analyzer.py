"""The analysis driver: files in, sorted violations out.

The pipeline has two phases.  The **per-file** phase parses each file
once, runs every per-file rule (RL002–RL009) over the tree, and
extracts the :class:`~repro.lint.project.FileFacts` record.  The
**project** phase stitches all facts into a
:class:`~repro.lint.project.ProjectModel` + call graph and runs the
cross-module rules (RL011, RL012), whose answers depend on every file
at once.

Downstream of both: config/``--select`` filtering, inline-suppression
filtering, and the unused-suppression check (a ``# reprolint:
disable=RLxxx`` whose rule no longer fires on that line is itself
reported, as :data:`~repro.lint.violations.META_RULE_ID`), then one
sorted violation list.

:func:`check_source` / :func:`check_paths` return the violation list;
:func:`run_lint` is the entry the CLI uses and also reports the
per-rule suppression counts (pinned by the repo's own test suite, so
suppressions cannot grow silently).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from .callgraph import CallGraph
from .config import LintConfig
from .project import (
    FileFacts,
    ProjectModel,
    extract_facts,
    module_name_for,
)
from .registry import FileContext, all_rules, file_rules, project_rules
from .suppressions import SuppressionTable, parse_suppressions
from .violations import META_RULE_ID, Violation


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files and directories to a sorted list of ``.py`` files.

    Raises:
        FileNotFoundError: if a given path does not exist.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                files.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(files))


@dataclass
class _FileRecord:
    """One file's state as it moves through the pipeline."""

    path: str
    source_lines: List[str]
    facts: FileFacts
    raw_violations: List[Violation]  # per-file rules, pre-filtering
    suppressions: SuppressionTable
    parse_failed: bool = False
    meta: List[Violation] = field(default_factory=list)


@dataclass
class LintRun:
    """Everything one analysis produced.

    Attributes:
        violations: the final, sorted, filtered list.
        suppression_counts: inline-suppression directives per rule id.
    """

    violations: List[Violation]
    suppression_counts: Dict[str, int]


def _run_file_rules(path: str, tree: ast.Module, lines: List[str]) -> List[Violation]:
    """Every per-file rule over one tree — unfiltered; config/--select
    filtering happens downstream, with the project rules' output."""
    context = FileContext(path=path, tree=tree, source_lines=lines)
    for rule_cls in file_rules().values():
        rule_cls(context).run()
    return context.violations


def _analyze_file(path: str, source: str, known_ids: Iterable[str]) -> _FileRecord:
    lines = source.splitlines()
    suppressions = parse_suppressions(path, lines, known_ids)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return _FileRecord(
            path=path,
            source_lines=lines,
            facts=FileFacts(path=path, module=module_name_for(path)),
            raw_violations=[],
            suppressions=suppressions,
            parse_failed=True,
            meta=[
                Violation(
                    path=path,
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    rule_id=META_RULE_ID,
                    message=f"syntax error: {exc.msg}",
                )
            ],
        )
    return _FileRecord(
        path=path,
        source_lines=lines,
        facts=extract_facts(path, tree),
        raw_violations=_run_file_rules(path, tree, lines),
        suppressions=suppressions,
    )


def _run_project_rules(
    records: Sequence[_FileRecord],
) -> Dict[str, List[Violation]]:
    """The cross-module phase: one model, every project rule, results
    grouped by file path."""
    model = ProjectModel(record.facts for record in records)
    graph = CallGraph(model)
    by_path: Dict[str, List[Violation]] = {}
    for rule_cls in project_rules().values():
        rule = rule_cls()
        rule.check_project(model, graph)
        for violation in rule.violations:
            by_path.setdefault(violation.path, []).append(violation)
    return by_path


def _finalize(
    records: Sequence[_FileRecord],
    project_violations: Mapping[str, List[Violation]],
    config: LintConfig,
    select: Optional[Set[str]],
) -> List[Violation]:
    """Config/select filtering, suppression filtering, and the
    unused-suppression check — the fan-in to one sorted list."""

    def effective(rule_id: str, path: str) -> bool:
        if select is not None and rule_id not in select:
            return False
        return config.rule_applies(rule_id, path)

    final: List[Violation] = []
    for record in records:
        final.extend(record.meta)
        final.extend(record.suppressions.problems)
        candidates = [
            v
            for v in [*record.raw_violations, *project_violations.get(record.path, [])]
            if effective(v.rule_id, record.path)
        ]
        fired_lines = {(v.rule_id, v.line) for v in candidates}
        fired_rules = {v.rule_id for v in candidates}
        final.extend(
            v for v in candidates if not record.suppressions.is_suppressed(v)
        )
        if record.parse_failed:
            continue  # nothing fired because nothing ran; pragmas keep
        for directive in record.suppressions.directives:
            if directive.rule_id == META_RULE_ID:
                continue
            if not effective(directive.rule_id, record.path):
                continue  # rule disabled here — the pragma is unjudgeable
            used = (
                directive.rule_id in fired_rules
                if directive.scope == "file"
                else (directive.rule_id, directive.lineno) in fired_lines
            )
            if not used:
                final.append(
                    Violation(
                        path=record.path,
                        line=directive.lineno,
                        column=directive.column,
                        rule_id=META_RULE_ID,
                        message=(
                            f"unused suppression: {directive.rule_id} does "
                            "not fire "
                            + (
                                "anywhere in this file"
                                if directive.scope == "file"
                                else "on this line"
                            )
                            + " — remove the stale pragma"
                        ),
                    )
                )
    return sorted(final)


def _normalize_select(select: Optional[Iterable[str]]) -> Optional[Set[str]]:
    if select is None:
        return None
    return set(select)


def check_sources(
    sources: Mapping[str, str],
    *,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint a set of in-memory files as one project.

    The fixture entry point for cross-module rules: keys are the paths
    the project model derives module names from, values are source
    text.
    """
    config = config or LintConfig()
    known = all_rules()
    records = [
        _analyze_file(path, source, known)
        for path, source in sources.items()
        if not config.path_excluded(path)
    ]
    project_violations = _run_project_rules(records)
    return _finalize(
        records, project_violations, config, _normalize_select(select)
    )


def check_source(
    source: str,
    path: str = "<string>",
    *,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one source string (a one-file project).

    Args:
        source: Python source text.
        path: path to attribute violations to (and to match rule
            excludes against; it also determines the module name the
            cross-module rules see).
        config: resolved configuration; defaults to all rules on.
        select: restrict to these rule ids (after config filtering);
            ``None`` means all registered rules.

    Returns:
        Sorted violations, including suppression problems and — as a
        :data:`~repro.lint.violations.META_RULE_ID` entry — syntax
        errors.
    """
    return check_sources({path: source}, config=config, select=select)


def run_lint(
    paths: Sequence[str],
    *,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> LintRun:
    """The full pipeline over files on disk.

    Args:
        paths: files and directory trees to lint.
        config: resolved configuration.
        select: restrict reporting to these rule ids.

    Returns:
        A :class:`LintRun` with the violations and the per-rule
        suppression-directive counts.
    """
    config = config or LintConfig()
    known = all_rules()
    records: List[_FileRecord] = []
    for filename in iter_python_files(paths):
        if config.path_excluded(filename):
            continue
        try:
            with open(filename, encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            records.append(
                _FileRecord(
                    path=filename,
                    source_lines=[],
                    facts=FileFacts(
                        path=filename, module=module_name_for(filename)
                    ),
                    raw_violations=[],
                    suppressions=SuppressionTable(),
                    parse_failed=True,
                    meta=[
                        Violation(
                            path=filename,
                            line=1,
                            column=0,
                            rule_id=META_RULE_ID,
                            message=f"cannot read file: {exc}",
                        )
                    ],
                )
            )
            continue
        records.append(_analyze_file(filename, source, known))
    project_violations = _run_project_rules(records)
    violations = _finalize(
        records, project_violations, config, _normalize_select(select)
    )
    suppression_counts: Dict[str, int] = {}
    for record in records:
        for directive in record.suppressions.directives:
            suppression_counts[directive.rule_id] = (
                suppression_counts.get(directive.rule_id, 0) + 1
            )
    return LintRun(
        violations=violations,
        suppression_counts=dict(sorted(suppression_counts.items())),
    )


def check_paths(
    paths: Sequence[str],
    *,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint files and directory trees; the union of per-file results
    plus the cross-module rules over the whole set."""
    return run_lint(paths, config=config, select=select).violations
