"""Reporter golden snapshots: the JSON and GitHub-annotation formats.

CI parses both (the JSON report is uploaded as an artifact; the GitHub
format drives inline PR annotations), so their exact shape is a
contract.  The golden files under ``tests/lint/golden/`` snapshot the
renderer output for a fixed violation list covering the tricky cases —
multi-rule tallies, zero-violation output, and workflow-command
escaping of ``%`` and newlines.  A deliberate format change regenerates
them with::

    PYTHONPATH=src python -m tests.lint.test_report_golden regenerate
"""

import json
import sys
from pathlib import Path

from repro.lint.report import render_github, render_json, render_text
from repro.lint.violations import Violation

GOLDEN = Path(__file__).parent / "golden"


def reference_violations():
    """Deterministic list exercising sort order, repeated rules, and
    message characters the GitHub format must escape."""
    return [
        Violation(
            path="src/repro/core/ebrr.py",
            line=42,
            column=8,
            rule_id="RL007",
            message="exact float equality on a path cost",
        ),
        Violation(
            path="src/repro/parallel/sweep.py",
            line=7,
            column=0,
            rule_id="RL011",
            message="phase entry point 'sweep_grid' has no span; 100% of it\nis untraced",
        ),
        Violation(
            path="src/repro/parallel/sweep.py",
            line=19,
            column=4,
            rule_id="RL011",
            message="phase entry point 'run_grid' neither opens an obs span nor calls anything that does",
        ),
        Violation(
            path="src/repro/transit/journey.py",
            line=250,
            column=16,
            rule_id="RL012",
            message="python for-loop iterates CSR/adjacency state (costs, indptr, targets)",
        ),
    ]


class TestGolden:
    def test_json_matches_golden(self):
        expected = (GOLDEN / "report.json").read_text()
        assert render_json(reference_violations()) + "\n" == expected

    def test_github_matches_golden(self):
        expected = (GOLDEN / "annotations.txt").read_text()
        assert render_github(reference_violations()) + "\n" == expected

    def test_github_clean_matches_golden(self):
        expected = (GOLDEN / "annotations_clean.txt").read_text()
        assert render_github([]) + "\n" == expected


class TestContracts:
    def test_json_is_parseable_and_counts_agree(self):
        payload = json.loads(render_json(reference_violations()))
        assert payload["count"] == 4
        assert payload["by_rule"] == {"RL007": 1, "RL011": 2, "RL012": 1}
        assert [v["line"] for v in payload["violations"]] == [42, 7, 19, 250]

    def test_github_escapes_workflow_command_characters(self):
        out = render_github(reference_violations())
        assert "%25" in out       # literal % escaped
        assert "%0A" in out       # newline escaped
        assert "\nis untraced" not in out

    def test_github_columns_are_one_indexed(self):
        out = render_github(reference_violations()[:1])
        assert "col=9" in out

    def test_text_tally_footer(self):
        out = render_text(reference_violations())
        assert out.splitlines()[-1] == (
            "reprolint: 4 violation(s) (RL007×1, RL011×2, RL012×1)"
        )


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "report.json").write_text(render_json(reference_violations()) + "\n")
    (GOLDEN / "annotations.txt").write_text(
        render_github(reference_violations()) + "\n"
    )
    (GOLDEN / "annotations_clean.txt").write_text(render_github([]) + "\n")
    print(f"golden files regenerated under {GOLDEN}")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "regenerate":
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
