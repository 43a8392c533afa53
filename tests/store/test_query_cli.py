"""``repro query`` end-to-end: populate a store, query every view.

The determinism tests pin the CLI contract CI leans on: querying an
unchanged database twice is byte-identical, in every format.
"""

import json

import pytest

from repro.cli import main
from repro.store import RunStore, import_bench_payload


@pytest.fixture
def db(tmp_path):
    """A small populated database: two runs, two benches, one trace."""
    path = tmp_path / "runs.db"
    with RunStore(path) as store:
        a = store.record_run(
            "sweep", "sweep-0", dataset="toy", git_rev="abc123",
            config={"K": 4}, metrics={"utility": 20.0, "feasible": True},
        )
        store.record_run(
            "planner", "EBRR", dataset="toy", git_rev="abc123",
            config={"K": 6}, metrics={"utility": 18.5},
        )
        import_bench_payload(
            store, "fullscale", {"gate": "passed", "speedup": 8.0}
        )
        import_bench_payload(
            store,
            "starved",
            {"gate": "skipped", "cpu_limited": True, "speedup": 0.6},
        )
        store.record_trace("/tmp/trace.json", kind="chrome", run_id=a)
    return str(path)


def _query(capsys, *argv):
    code = main(["query", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestViews:
    def test_runs_table(self, capsys, db):
        code, out, _ = _query(capsys, "runs", "--db", db)
        assert code == 0
        assert "sweep-0" in out
        assert "EBRR" in out
        assert "abc123" in out

    def test_runs_kind_filter(self, capsys, db):
        code, out, _ = _query(capsys, "runs", "--db", db, "--kind", "planner")
        assert code == 0
        assert "EBRR" in out
        assert "sweep-0" not in out

    def test_metrics_filter_and_csv(self, capsys, db):
        code, out, _ = _query(
            capsys, "metrics", "--db", db, "--metric", "utility",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "run_id,kind,name,dataset,metric,value"
        assert len(lines) == 3  # header + one utility row per run
        assert all("utility" in line for line in lines[1:])

    def test_benches_hide_payload(self, capsys, db):
        code, out, _ = _query(
            capsys, "benches", "--db", db, "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert {r["bench"] for r in rows} == {"fullscale", "starved"}
        assert all("payload" not in r for r in rows)

    def test_gates_view_normalized(self, capsys, db):
        code, out, _ = _query(capsys, "gates", "--db", db, "--format", "json")
        assert code == 0
        gates = {r["bench"]: r for r in json.loads(out)}
        assert gates["fullscale"]["gate"] == "passed"
        assert gates["fullscale"]["value"] == 8.0
        assert gates["starved"]["gate"] == "skipped"
        assert gates["starved"]["cpu_limited"] is True
        assert gates["starved"]["metric"] == "speedup"
        assert gates["starved"]["value"] == 0.6
        assert "workers" not in gates["starved"]

    def test_traces_view(self, capsys, db):
        code, out, _ = _query(capsys, "traces", "--db", db)
        assert code == 0
        assert "/tmp/trace.json" in out
        assert "chrome" in out

    def test_last_filter(self, capsys, db):
        code, out, _ = _query(
            capsys, "runs", "--db", db, "--last", "1", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["name"] for r in rows] == ["EBRR"]


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "view", ["runs", "metrics", "benches", "gates", "traces"]
    )
    def test_unchanged_db_renders_identically(self, capsys, db, view, fmt):
        _, first, _ = _query(capsys, view, "--db", db, "--format", fmt)
        _, second, _ = _query(capsys, view, "--db", db, "--format", fmt)
        assert first == second


class TestDatabaseResolution:
    def test_no_db_anywhere_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        code, _, err = _query(capsys, "runs")
        assert code == 2
        assert "REPRO_STORE" in err

    def test_env_var_fallback(self, capsys, monkeypatch, db):
        monkeypatch.setenv("REPRO_STORE", db)
        code, out, _ = _query(capsys, "runs")
        assert code == 0
        assert "sweep-0" in out

    def test_db_flag_wins_over_env(self, capsys, monkeypatch, db, tmp_path):
        other = tmp_path / "other.db"
        with RunStore(other) as store:
            store.record_run("sweep", "other-run", git_rev="r")
        monkeypatch.setenv("REPRO_STORE", db)
        code, out, _ = _query(capsys, "runs", "--db", str(other))
        assert code == 0
        assert "other-run" in out
        assert "sweep-0" not in out


class TestGatesCheck:
    def _baseline(self, tmp_path, gates):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"gates": gates}))
        return str(path)

    def test_check_passes_against_own_gates(self, capsys, db, tmp_path):
        baseline = self._baseline(
            tmp_path,
            [
                {
                    "bench": "fullscale",
                    "gate": "passed",
                    "headline": {"metric": "speedup", "value": 8.0},
                }
            ],
        )
        code, out, _ = _query(capsys, "gates", "--db", db, "--check", baseline)
        assert code == 0
        assert "no regressions" in out

    def test_check_fails_on_injected_regression(self, capsys, db, tmp_path):
        baseline = self._baseline(
            tmp_path,
            [
                {
                    "bench": "fullscale",
                    "gate": "passed",
                    # Commit a much larger speedup than the store holds:
                    # the current 8.0 is now a >25% drop.
                    "headline": {"metric": "speedup", "value": 100.0},
                }
            ],
        )
        code, _, err = _query(capsys, "gates", "--db", db, "--check", baseline)
        assert code == 1
        assert "speedup-regression" in err

    def test_check_missing_baseline_is_exit_two(self, capsys, db, tmp_path):
        code, _, err = _query(
            capsys, "gates", "--db", db,
            "--check", str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "cannot load" in err
