"""The ``python -m repro.lint`` / ``repro lint`` command line.

``repro lint ARGS`` hands ``ARGS`` to :func:`main` unchanged, so the
two spellings share this one parser.  Exit codes follow CI conventions:
0 clean, 1 violations found, 2 usage or environment errors (bad path,
unknown rule id).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .analyzer import run_lint
from .config import LintConfig, load_config
from .registry import all_rules, project_rules
from .report import format_names, render


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "reprolint: whole-program AST checker for this repo's "
            "architectural invariants (engine-routed searches, "
            "cache-safe graph mutation, deterministic iteration, "
            "tolerant float compares, trace-owned clock reads, "
            "span-covered phases, kernel-confined hot loops)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=(
            "files or directories to lint (default: the "
            "[tool.reprolint] include paths, or src)"
        ),
    )
    parser.add_argument(
        "--format", choices=format_names(), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", type=str, default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all enabled)",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore [tool.reprolint] in pyproject.toml",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def list_rules() -> str:
    project_ids = set(project_rules())
    lines = []
    for rule_id, rule_cls in all_rules().items():
        scope = "cross-module" if rule_id in project_ids else "per-file"
        lines.append(f"{rule_id}  {rule_cls.title} [{scope}]")
        lines.append(f"       {rule_cls.rationale}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    select: Optional[List[str]] = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
        unknown = sorted(set(select) - set(all_rules()))
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    config = LintConfig() if args.no_config else load_config()
    paths = args.paths if args.paths else config.default_paths()
    try:
        run = run_lint(paths, config=config, select=select)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    output = render(run.violations, args.format)
    if output:
        print(output)
    return 1 if run.violations else 0
