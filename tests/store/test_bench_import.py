"""Payload normalization, directory import, and the trajectory export.

The golden file under ``golden/`` pins the exporter's full output for a
fixture results directory; the byte-determinism test and the
committed-trajectory test enforce the contract CI relies on.
"""

import json
from pathlib import Path

import pytest

from repro.store import (
    RunStore,
    export_trajectory,
    gate_state,
    headline,
    import_bench_dir,
    import_bench_payload,
)
from repro.store.bench import is_cpu_limited

GOLDEN = Path(__file__).parent / "golden"
RESULTS_DIR = Path(__file__).parents[2] / "benchmarks" / "results"

#: A miniature results directory covering every payload shape the
#: normalizer knows: ladder (largest.speedup), a core-starved flat
#: speedup, overhead-vs-limit, and a gateless free-form payload.
FIXTURE_PAYLOADS = {
    "ladder": {
        "gate": "passed",
        "largest": {"speedup": 4.5, "n": 2000},
        "tiers": [{"n": 500, "speedup": 2.1}, {"n": 2000, "speedup": 4.5}],
    },
    "starved": {"gate": "skipped", "cpu_limited": True, "speedup": 1.9},
    "overhead": {
        "disabled_overhead_pct": 0.4,
        "max_disabled_overhead_pct": 2.0,
    },
    "freeform": {"note": "no gate, no headline"},
}


def _write_fixture_dir(root):
    for name, payload in FIXTURE_PAYLOADS.items():
        (root / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
    # The trajectory artifact itself must never be imported as a bench.
    (root / "BENCH_trajectory.json").write_text("{}\n")
    return root


class TestHeadline:
    def test_ladder_largest_speedup(self):
        assert headline(FIXTURE_PAYLOADS["ladder"]) == {
            "metric": "speedup", "value": 4.5,
        }

    def test_flat_scalars(self):
        assert headline({"speedup": 3.0})["metric"] == "speedup"
        assert headline({"disabled_overhead_pct": 0.5}) == {
            "metric": "disabled_overhead_pct", "value": 0.5,
        }

    def test_unrecognised_is_none(self):
        assert headline(FIXTURE_PAYLOADS["freeform"]) is None


class TestGateState:
    def test_gate_string_passthrough(self):
        assert gate_state({"gate": "passed"}) == "passed"
        assert gate_state({"gate": "skipped"}) == "skipped"

    def test_bool_passed(self):
        assert gate_state({"passed": True}) == "passed"
        assert gate_state({"passed": False}) == "failed"

    def test_overhead_vs_limit(self):
        assert gate_state(FIXTURE_PAYLOADS["overhead"]) == "passed"
        assert gate_state(
            {"disabled_overhead_pct": 3.0, "max_disabled_overhead_pct": 2.0}
        ) == "failed"

    def test_no_gate_is_none(self):
        assert gate_state(FIXTURE_PAYLOADS["freeform"]) is None

    def test_cpu_limited(self):
        assert is_cpu_limited(FIXTURE_PAYLOADS["starved"])
        assert not is_cpu_limited(FIXTURE_PAYLOADS["ladder"])


class TestImportAndExport:
    def test_fixture_dir_matches_golden(self, tmp_path):
        _write_fixture_dir(tmp_path)
        with RunStore(":memory:") as store:
            names = import_bench_dir(store, tmp_path)
            trajectory = export_trajectory(store)
        assert names == sorted(FIXTURE_PAYLOADS)
        rendered = json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
        golden = (GOLDEN / "trajectory.json").read_text()
        assert rendered == golden

    def test_trajectory_artifact_never_imported(self, tmp_path):
        _write_fixture_dir(tmp_path)
        with RunStore(":memory:") as store:
            names = import_bench_dir(store, tmp_path)
        assert "trajectory" not in names

    def test_reimport_does_not_grow_history(self, tmp_path):
        _write_fixture_dir(tmp_path)
        with RunStore(":memory:") as store:
            import_bench_dir(store, tmp_path)
            first = len(store.benches())
            import_bench_dir(store, tmp_path)
            assert len(store.benches()) == first

    def test_export_is_byte_deterministic(self, tmp_path):
        _write_fixture_dir(tmp_path)
        with RunStore(":memory:") as store:
            import_bench_dir(store, tmp_path)
            once = json.dumps(export_trajectory(store), sort_keys=True)
            twice = json.dumps(export_trajectory(store), sort_keys=True)
        assert once == twice

    def test_import_payload_normalizes(self):
        with RunStore(":memory:") as store:
            import_bench_payload(store, "starved", FIXTURE_PAYLOADS["starved"])
            row = store.benches(bench="starved")[0]
        assert row["gate"] == "skipped"
        assert row["headline_metric"] == "speedup"
        assert row["headline_value"] == pytest.approx(1.9)
        assert row["cpu_limited"] is True

    def test_gateless_bench_still_exported(self, tmp_path):
        _write_fixture_dir(tmp_path)
        with RunStore(":memory:") as store:
            import_bench_dir(store, tmp_path)
            trajectory = export_trajectory(store)
        assert "freeform" in trajectory["benches"]
        assert "freeform" not in [g["bench"] for g in trajectory["gates"]]


class TestCommittedTrajectory:
    def test_exporter_reproduces_committed_artifact(self):
        """Importing the repo's own results directory and exporting must
        reproduce the committed ``BENCH_trajectory.json`` byte-for-byte
        (the acceptance contract for ``collect_bench.py``)."""
        committed = RESULTS_DIR / "BENCH_trajectory.json"
        if not committed.exists():  # pragma: no cover - fresh checkout
            pytest.skip("no committed trajectory")
        with RunStore(":memory:") as store:
            import_bench_dir(store, RESULTS_DIR)
            trajectory = export_trajectory(store)
        rendered = json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
        assert rendered == committed.read_text()
