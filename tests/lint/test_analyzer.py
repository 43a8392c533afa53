"""Analyzer-level behaviour: repo cleanliness with pinned suppression
counts, inline suppressions, and config."""

import os
import textwrap

import pytest

from repro.lint import (
    META_RULE_ID,
    all_rules,
    check_paths,
    check_source,
    load_config,
    run_lint,
)
from repro.lint.config import config_from_table

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Inline suppressions the tree may carry, per rule id.  A new pragma
#: fails this pin; a removed one fails it too, so the pin is lowered in
#: the same change and suppressions can only shrink.  The one RL012 is
#: the journey planner's walk-layer loop (transit/journey.py).
PINNED_SUPPRESSIONS = {"RL012": 1}


def lint(snippet, **kwargs):
    return check_source(textwrap.dedent(snippet), path="snippet.py", **kwargs)


# ----------------------------------------------------------------------
# The gate itself: the repo is clean under its own config
# ----------------------------------------------------------------------


def test_repo_source_tree_is_clean():
    """Every ``[tool.reprolint]`` include path (src, benchmarks,
    examples) is clean, and the suppression count per rule is exactly
    the pinned one."""
    config = load_config(REPO_ROOT)
    run = run_lint(config.default_paths(), config=config)
    assert run.violations == [], "\n".join(v.format() for v in run.violations)
    assert run.suppression_counts == PINNED_SUPPRESSIONS


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_line_suppression_is_honored():
    flagged = "for node in set(path):\n    print(node)\n"
    suppressed = (
        "for node in set(path):  # reprolint: disable=RL003\n    print(node)\n"
    )
    assert [v.rule_id for v in check_source(flagged)] == ["RL003"]
    assert check_source(suppressed) == []


def test_line_suppression_only_covers_its_line():
    snippet = """
        a = cost == 0.0  # reprolint: disable=RL007
        b = cost == 0.0
    """
    violations = lint(snippet)
    assert [v.rule_id for v in violations] == ["RL007"]
    assert violations[0].line == 3


def test_file_suppression_covers_the_whole_file():
    snippet = """
        # reprolint: disable-file=RL007
        a = cost == 0.0
        b = cost != 1.5
    """
    assert lint(snippet) == []


def test_suppression_of_one_rule_keeps_others():
    snippet = """
        def f(xs=[]):  # reprolint: disable=RL005
            return xs == 0.0
    """
    # RL005 silenced; the RL007 on the return line still fires... but it
    # is on a different line, so no interaction either way.
    assert [v.rule_id for v in lint(snippet)] == ["RL007"]


def test_unknown_rule_id_in_suppression_is_reported():
    snippet = "x = 1  # reprolint: disable=RL999\n"
    violations = check_source(snippet)
    assert [v.rule_id for v in violations] == [META_RULE_ID]
    assert "RL999" in violations[0].message


def test_meta_rule_cannot_be_suppressed():
    snippet = "x = 1  # reprolint: disable=RL999,RL000\n"
    violations = check_source(snippet)
    # The unknown-id diagnostic survives its own suppression attempt.
    assert [v.rule_id for v in violations] == [META_RULE_ID]


def test_syntax_error_is_a_meta_violation():
    violations = check_source("def broken(:\n")
    assert [v.rule_id for v in violations] == [META_RULE_ID]
    assert "syntax error" in violations[0].message


# ----------------------------------------------------------------------
# Config: disable, excludes, per-rule excludes
# ----------------------------------------------------------------------


def test_config_disable_turns_a_rule_off():
    config = config_from_table({"disable": ["RL007"]})
    assert check_source("x = cost == 0.0\n", config=config) == []


def test_config_rule_excludes_are_path_scoped():
    config = config_from_table(
        {"rule-excludes": {"RL009": ["src/repro/network/engine.py"]}}
    )
    bad = "from repro.network.kernels import PythonKernel\n"
    assert (
        check_source(bad, path="src/repro/network/engine.py", config=config) == []
    )
    assert [
        v.rule_id
        for v in check_source(bad, path="src/repro/core/ebrr.py", config=config)
    ] == ["RL009"]


def test_config_global_exclude_skips_files():
    config = config_from_table({"exclude": ["tests/*"]})
    assert config.path_excluded("tests/test_foo.py")
    assert not config.path_excluded("src/repro/cli.py")


def test_select_restricts_rules():
    snippet = "def f(xs=[]):\n    return xs == 0.0\n"
    assert [v.rule_id for v in check_source(snippet, select=["RL005"])] == ["RL005"]


def test_registry_is_complete():
    assert sorted(all_rules()) == [
        "RL002",
        "RL003",
        "RL005",
        "RL007",
        "RL008",
        "RL009",
        "RL011",
        "RL012",
    ]
    for rule_cls in all_rules().values():
        assert rule_cls.title and rule_cls.rationale


def test_violations_are_sorted_and_formatted():
    snippet = """
        import time

        def f(xs=[]):
            return time.time() if xs == 0.0 else 0
    """
    violations = lint(snippet)
    assert violations == sorted(violations)
    for violation in violations:
        assert violation.format().startswith("snippet.py:")


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        check_paths(["no/such/dir"])
