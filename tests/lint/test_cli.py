"""CLI surfaces: ``python -m repro.lint``, ``repro lint``, reporters,
and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main
from repro.lint.report import render
from repro.lint.violations import Violation

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.examples
def test_python_dash_m_repro_lint_src_exits_zero():
    """The CI gate verbatim: ``python -m repro.lint src`` is clean."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_lint_main_clean_repo_in_process(capsys):
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        code = lint_main(["src"])
    finally:
        os.chdir(cwd)
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_lint_main_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("from repro.network.kernels import PythonKernel\n")
    code = lint_main([str(bad), "--no-config"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RL009" in out


def test_lint_main_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = cost == 0.0\n")
    code = lint_main([str(bad), "--no-config", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["count"] == 1
    assert payload["by_rule"] == {"RL004": 1}
    assert payload["violations"][0]["line"] == 1


def test_lint_main_github_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("from time import time\n")
    code = lint_main([str(bad), "--no-config", "--format", "github"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("::error file=")
    assert "title=reprolint RL006" in out


def test_lint_main_exit_codes(tmp_path, capsys):
    assert lint_main(["--list-rules"]) == 0
    assert lint_main([str(tmp_path / "missing.py")]) == 2
    assert lint_main(["--select", "RL999", str(tmp_path)]) == 2
    capsys.readouterr()


def test_repro_cli_lint_subcommand(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("from repro.network.engine import engine_for\n")
    assert repro_main(["lint", str(good), "--no-config"]) == 0
    bad = tmp_path / "bad.py"
    bad.write_text("import repro.network.kernels\n")
    assert repro_main(["lint", str(bad), "--no-config"]) == 1
    out = capsys.readouterr().out
    assert "RL009" in out


def test_repro_cli_lint_list_rules(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ["RL002", "RL003", "RL004", "RL005", "RL006", "RL007"]:
        assert rule_id in out


def test_render_unknown_format_raises():
    violation = Violation("f.py", 1, 0, "RL004", "msg")
    with pytest.raises(KeyError):
        render([violation], "xml")


# ----------------------------------------------------------------------
# Cache flags
# ----------------------------------------------------------------------


def test_cache_flag_reports_hits_on_the_second_run(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("def f():\n    return 1\n")
    cache = tmp_path / "cache.json"
    args = [str(target), "--no-config", "--cache", str(cache)]
    assert lint_main(args) == 0
    first = capsys.readouterr().err
    assert "cache 0 hit(s), 1 miss(es)" in first
    assert cache.exists()
    assert lint_main(args) == 0
    second = capsys.readouterr().err
    assert "cache 1 hit(s), 0 miss(es)" in second


def test_no_cache_flag_writes_nothing(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("def f():\n    return 1\n")
    assert lint_main([str(target), "--no-config", "--no-cache"]) == 0
    assert "cache" not in capsys.readouterr().err
    assert list(tmp_path.glob("*.json")) == []


# ----------------------------------------------------------------------
# Baseline ratchet flags
# ----------------------------------------------------------------------


def test_write_then_check_baseline_cycle(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = cost == 0.0\n")
    baseline = tmp_path / "baseline.json"
    common = ["--no-config", "--no-cache"]

    # Record current debt: one RL004.
    assert lint_main([str(bad), *common, "--write-baseline", str(baseline)]) == 0
    assert "baseline written" in capsys.readouterr().err
    payload = json.loads(baseline.read_text())
    assert payload["violations"] == {"RL004": 1}

    # At the baseline: the same violation is tolerated, exit 0.
    assert lint_main([str(bad), *common, "--baseline", str(baseline)]) == 0
    assert "ratchet ok" in capsys.readouterr().err

    # Growth: a second violation fails the ratchet.
    bad.write_text("x = cost == 0.0\ny = cost == 1.0\n")
    assert lint_main([str(bad), *common, "--baseline", str(baseline)]) == 1
    assert "ratchet FAILED" in capsys.readouterr().err

    # Shrink: clean file passes and reports slack to re-ratchet.
    bad.write_text("x = 1\n")
    assert lint_main([str(bad), *common, "--baseline", str(baseline)]) == 0
    assert "ratchet slack" in capsys.readouterr().err


def test_new_suppression_fails_the_ratchet(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = cost == 0.0\n")
    baseline = tmp_path / "baseline.json"
    common = ["--no-config", "--no-cache"]
    assert lint_main([str(bad), *common, "--write-baseline", str(baseline)]) == 0
    bad.write_text("x = cost == 0.0  # reprolint: disable=RL004\n")
    assert lint_main([str(bad), *common, "--baseline", str(baseline)]) == 1
    err = capsys.readouterr().err
    assert "suppression" in err and "ratchet FAILED" in err


def test_unreadable_baseline_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    broken = tmp_path / "baseline.json"
    broken.write_text("{not json")
    code = lint_main(
        [str(target), "--no-config", "--no-cache", "--baseline", str(broken)]
    )
    assert code == 2
    assert "baseline" in capsys.readouterr().err


def test_repo_baseline_file_matches_the_tree():
    """The committed lint-baseline.json is in sync: `repro lint
    --baseline` over the configured include paths exits 0."""
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        code = lint_main(["--baseline", "lint-baseline.json", "--no-cache"])
    finally:
        os.chdir(cwd)
    assert code == 0


def test_repro_cli_forwards_ratchet_and_cache_flags(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = cost == 0.0\n")
    baseline = tmp_path / "baseline.json"
    cache = tmp_path / "cache.json"
    assert repro_main(
        ["lint", str(bad), "--no-config", "--cache", str(cache),
         "--write-baseline", str(baseline)]
    ) == 0
    assert baseline.exists() and cache.exists()
    assert repro_main(
        ["lint", str(bad), "--no-config", "--no-cache",
         "--baseline", str(baseline)]
    ) == 0
    assert "ratchet ok" in capsys.readouterr().err


def test_list_rules_labels_scopes(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "RL010" in out and "[cross-module]" in out
    assert "RL002" in out and "[per-file]" in out
