"""The peak-RSS gate CI wraps the paper-scale plan in
(``benchmarks/peak_rss.py``): it passes the command's status through and
fails a successful command whose process tree went over the limit."""

import subprocess
import sys
from pathlib import Path

WRAPPER = Path(__file__).parents[1] / "benchmarks" / "peak_rss.py"

#: A child that touches 64 MiB (``bytes * n`` writes every page).
ALLOCATE = "blob = b'x' * (64 << 20)"


def _gate(limit_mb, code):
    return subprocess.run(
        [sys.executable, str(WRAPPER), "--limit-mb", str(limit_mb), "--",
         sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_under_the_limit_passes():
    run = _gate(4096, ALLOCATE)
    assert run.returncode == 0, run.stderr
    peak = float(run.stdout.split()[0].split("=")[1])
    assert 64 <= peak < 4096


def test_over_the_limit_fails():
    run = _gate(32, ALLOCATE)
    assert run.returncode == 1
    assert "exceeds the 32 MB limit" in run.stderr


def test_command_status_passes_through():
    assert _gate(4096, "raise SystemExit(3)").returncode == 3
