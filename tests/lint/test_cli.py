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
    """The ``__main__`` entry point end to end: ``python -m repro.lint
    src`` in a fresh interpreter exits 0 and reports the tree clean."""
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
    # One clean file: the whole tree is linted by
    # test_repo_source_tree_is_clean and the subprocess test above.
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        code = lint_main(["src/repro/lint/cli.py"])
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
    assert payload["by_rule"] == {"RL007": 1}
    assert payload["violations"][0]["line"] == 1


def test_lint_main_github_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("from time import time\n")
    code = lint_main([str(bad), "--no-config", "--format", "github"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("::error file=")
    assert "title=reprolint RL008" in out


def test_lint_main_exit_codes(tmp_path, capsys):
    assert lint_main(["--list-rules"]) == 0
    capsys.readouterr()
    # Usage errors go to stderr: a json or github consumer must read
    # nothing but its own format on stdout.
    for fmt in ("text", "json"):
        assert lint_main([str(tmp_path / "missing.py"), "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "no such file or directory" in err
        assert lint_main(["--select", "RL999", "--format", fmt, str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown rule id(s): RL999" in err


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
    for rule_id in ["RL002", "RL003", "RL005", "RL007", "RL008", "RL009"]:
        assert rule_id in out


def test_repro_cli_lint_passes_argv_through(tmp_path, capsys):
    """``repro lint ARGS`` is ``python -m repro.lint ARGS``: same exit
    code, same output, whatever the flags."""
    bad = tmp_path / "bad.py"
    bad.write_text("x = cost == 0.0\nimport repro.network.kernels\n")
    for argv in (
        [str(bad), "--no-config", "--format", "json"],
        ["--select", "RL009", "--no-config", "--format", "github", str(bad)],
        ["--select", "RL999", str(bad)],
    ):
        direct = lint_main(argv)
        expected = capsys.readouterr().out
        assert repro_main(["lint", *argv]) == direct
        assert capsys.readouterr().out == expected


def test_repro_cli_imports_lint_lazily():
    """``repro plan``/``repro serve`` processes never load the linter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    probe = "import sys, repro.cli; print('repro.lint' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_render_unknown_format_raises():
    violation = Violation("f.py", 1, 0, "RL007", "msg")
    with pytest.raises(KeyError):
        render([violation], "xml")


def test_list_rules_labels_scopes(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "RL011" in out and "[cross-module]" in out
    assert "RL002" in out and "[per-file]" in out
