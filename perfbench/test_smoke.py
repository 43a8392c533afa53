"""Smoke test of the benchmark itself, at minimal sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs and prints every named metric with its
unit, that ``BENCHMARK.json`` names the same metrics, that a corrupted
route fails the output checks and turns the run's exit code non-zero,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--scale", str(workloads.SMOKE_SCALE[workload])]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        kind = "replan" if workload == "replan-orlando" else "plan"
        printed = ["setup_s", "peak_rss_mb", "ops_per_s", "fail_ratio",
                   f"{kind}_p50_ms", f"{kind}_p90_ms"]
        if workload == "serve-nyc-rw":
            printed += ["update_p50_ms", "journey_p50_ms"]
        for name in printed:
            assert f"  {name} " in done.stdout


def test_benchmark_json_names_the_same_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def _corrupt(stops, path):
    # Drop a middle path node: the path stops being a road path.
    return stops, path[:1] + path[2:]


def test_a_corrupted_route_fails_the_check():
    sweep = workloads.Sweep(1, workloads.SMOKE_SCALE["sweep-chicago"], None)
    state = sweep.setup()
    result = sweep.run_op(state, (12, 2.0))
    stops, path = result.route.stops, result.route.path
    good = checks.route_problems(state["network"], state["instance"], stops, path, 12, 2.0)
    assert good == []
    bad = checks.route_problems(state["network"], state["instance"], *_corrupt(stops, path), 12, 2.0)
    assert bad
    assert checks.route_problems(state["network"], state["instance"], stops, path, len(stops) - 1, 2.0)
    body = {"feasible": True, "violations": [], "route": {"stops": list(stops), "path": list(path)}}
    assert workloads.plan_problems(body, 12) == []
    body["route"]["stops"] = list(reversed(stops))
    assert workloads.plan_problems(body, 12)


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    class Corrupting(workloads.Sweep):
        def received(self, stops, path):
            return _corrupt(stops, path)

    monkeypatch.setattr(workloads, "make", lambda name, seed, scale, traced: Corrupting(seed, scale, None))
    code = bench.main(["--workload", "sweep-chicago", "--seed", "1", "--seconds", "0.5",
                       "--scale", str(workloads.SMOKE_SCALE["sweep-chicago"])])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sweep-chicago", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
