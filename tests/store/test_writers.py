"""Store recording by the instrumented writers: planner runs."""

import pytest

from repro.core.config import EBRRConfig
from repro.eval.runner import default_planners, run_planners
from repro.store import RunStore


class TestPlannerRecording:
    def test_one_row_per_planner(self, toy_instance, tmp_path):
        config = EBRRConfig(max_stops=4, max_adjacent_cost=4.0, alpha=1.0)
        planners = default_planners(seed=0)
        with RunStore(tmp_path / "runs.db") as store:
            plans = run_planners(
                toy_instance, config, planners,
                dataset="toy", store=store,
            )
            rows = store.runs(kind="planner")
            assert [r["name"] for r in rows] == [p.name for p in planners]
            metrics = {
                m["metric"]: m["value"]
                for m in store.metrics(run_id=rows[0]["id"])
            }
        assert set(plans) == {p.name for p in planners}
        assert metrics["utility"] == pytest.approx(
            plans[planners[0].name].metrics.utility
        )
        assert metrics["K"] == 4.0

    def test_env_var_opts_in(self, toy_instance, tmp_path, monkeypatch):
        db = tmp_path / "runs.db"
        monkeypatch.setenv("REPRO_STORE", str(db))
        config = EBRRConfig(max_stops=4, max_adjacent_cost=4.0, alpha=1.0)
        run_planners(
            toy_instance, config, default_planners(seed=0), dataset="toy"
        )
        with RunStore(db) as store:
            assert len(store.runs(kind="planner")) == 3
