"""RL000 unused-suppression warnings: a ``# reprolint: disable=`` whose
rule no longer fires is itself reported, so stale pragmas cannot
accumulate and quietly widen the gate."""

import textwrap

from repro.lint import META_RULE_ID, check_source
from repro.lint.config import config_from_table


def lint(snippet, **kwargs):
    return check_source(textwrap.dedent(snippet), path="src/repro/snippet.py", **kwargs)


def test_unused_line_suppression_is_flagged():
    violations = lint("x = 1  # reprolint: disable=RL007\n")
    assert [v.rule_id for v in violations] == [META_RULE_ID]
    assert "unused suppression" in violations[0].message
    assert "RL007" in violations[0].message
    assert "on this line" in violations[0].message


def test_used_line_suppression_is_silent():
    assert lint("x = cost == 0.0  # reprolint: disable=RL007\n") == []


def test_unused_file_suppression_is_flagged():
    violations = lint(
        """
        # reprolint: disable-file=RL007
        x = 1
    """
    )
    assert [v.rule_id for v in violations] == [META_RULE_ID]
    assert "anywhere in this file" in violations[0].message


def test_used_file_suppression_is_silent():
    violations = lint(
        """
        # reprolint: disable-file=RL007
        x = cost == 0.0
    """
    )
    assert violations == []


def test_mixed_directive_flags_only_the_stale_id():
    # RL007 fires on the line; RL005 does not — only RL005 is stale.
    violations = lint(
        "x = cost == 0.0  # reprolint: disable=RL007,RL005\n"
    )
    assert [v.rule_id for v in violations] == [META_RULE_ID]
    assert "RL005" in violations[0].message


def test_config_disabled_rule_makes_the_pragma_unjudgeable():
    # With the rule off, no violation can fire, so the pragma is not
    # reported as stale (it documents intent for when the rule is on).
    config = config_from_table({"disable": ["RL007"]})
    assert lint("x = 1  # reprolint: disable=RL007\n", config=config) == []


def test_rule_exclude_path_makes_the_pragma_unjudgeable():
    config = config_from_table(
        {"rule-excludes": {"RL007": ["src/repro/snippet.py"]}}
    )
    assert lint("x = 1  # reprolint: disable=RL007\n", config=config) == []


def test_select_narrowing_skips_unused_detection_for_other_rules():
    violations = lint(
        "x = 1  # reprolint: disable=RL007\n", select=["RL002"]
    )
    assert violations == []


def test_parse_failure_keeps_pragmas_unjudged():
    violations = lint(
        """
        x = 1  # reprolint: disable=RL007
        def broken(:
    """
    )
    assert [v.rule_id for v in violations] == [META_RULE_ID]
    assert "syntax error" in violations[0].message


def test_suppressed_project_rule_violation_counts_as_used():
    snippet = """
        def relax_all(csr, dist):
            for i in range(csr.indptr[0], csr.indptr[1]):  # reprolint: disable=RL012
                dist[i] = csr.costs[i]
    """
    assert lint(snippet) == []
