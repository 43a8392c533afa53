"""Integration tests for the experiment runners (small scale — the
benchmarks run them at full reproduction scale)."""

import dataclasses

import pytest

from repro.datasets import load_city, small_nyc_extract
from repro.eval.experiments import (
    ABLATION_VARIANTS,
    ablation_study,
    calibrated_alpha,
    case_study,
    dataset_statistics,
    demand_partitions,
    effect_of_k,
    effect_of_q,
    opt_comparison,
    scaled_alpha,
    time_vs_alpha,
    time_vs_c,
    travel_cost_experiment,
)
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def city():
    return load_city("chicago", scale=0.06, seed=42)


@pytest.fixture(scope="module")
def alpha(city):
    return calibrated_alpha(city)


class TestAlphaHelpers:
    def test_scaled_alpha_ratio(self, city):
        from repro.datasets.cities import PAPER_SIZES

        value = scaled_alpha(city, 2000.0)
        expected = 2000.0 * len(city.queries) / PAPER_SIZES["Chicago"]["Q"]
        assert value == pytest.approx(expected)

    def test_calibrated_alpha_positive_and_cached(self, city):
        a = calibrated_alpha(city)
        b = calibrated_alpha(city)
        assert a > 0
        assert a == b
        assert calibrated_alpha(city, balance=0.5) == pytest.approx(2 * a)

    def test_calibrated_alpha_rejects_bad_balance(self, city):
        with pytest.raises(ConfigurationError):
            calibrated_alpha(city, balance=0.0)

    def test_calibrated_alpha_survives_reused_ids(self):
        """Regression: the cache is keyed by ``id(dataset)``, and CPython
        hands a freed object's id to the next allocation.  Fresh
        wrappers of two cities, alternated and dropped, must each get
        their own city's alpha."""
        cities = [
            load_city("orlando", scale=0.05),
            load_city("chicago", scale=0.05),
        ]
        expected = [calibrated_alpha(c) for c in cities]
        assert expected[0] != expected[1]
        got = []
        for i in range(8):
            wrapper = dataclasses.replace(cities[i % 2])
            got.append(calibrated_alpha(wrapper))
            del wrapper  # freed before the next wrapper is allocated
        assert got == [expected[i % 2] for i in range(8)]


class TestEffectOfK(object):
    def test_rows_complete(self, city, alpha):
        rows = effect_of_k(city, [6, 10], alpha=alpha)
        assert len(rows) == 2 * 3  # two K values, three planners
        for row in rows:
            assert row["walk_cost"] > 0
            assert row["connectivity"] >= 0
            assert row["time_s"] >= 0
            assert row["K"] in (6, 10)

    def test_ebrr_walk_cost_weakly_improves_with_k(self, city, alpha):
        rows = effect_of_k(city, [4, 16], alpha=alpha)
        ebrr = {r["K"]: r["walk_cost"] for r in rows if r["algorithm"] == "EBRR"}
        assert ebrr[16] <= ebrr[4] * 1.05


class TestEffectOfQ:
    def test_partitions_cover_demand(self, city):
        parts = demand_partitions(city)
        assert len(parts) == 4
        assert sum(len(p) for p in parts) == len(city.queries)

    def test_rows(self, city, alpha):
        rows = effect_of_q(city, max_stops=8, alpha=alpha)
        assert len(rows) == 4 * 3
        names = {row["Q"] for row in rows}
        assert names == {"Dataset1", "Dataset2", "Dataset3", "Dataset4"}


class TestOptComparison:
    def test_ratio_bounds(self):
        extract = small_nyc_extract()
        rows = opt_comparison(extract, [4, 6])
        for row in rows:
            assert row["EBRR"] <= row["OPT"] + 1e-9
            assert 0.0 <= row["ratio"] <= 1.0 + 1e-9


class TestTravelCost:
    def test_rows_non_negative(self, city, alpha):
        rows = travel_cost_experiment(
            city, [6], alpha=alpha, num_trips=20, seed=1
        )
        assert len(rows) == 3
        for row in rows:
            assert row["decrease_min"] >= -1e-9


class TestTimeSweeps:
    def test_time_vs_c(self, city):
        rows = time_vs_c([city], [1.0, 2.0], max_stops=8)
        assert len(rows) == 2
        assert all(row["time_s"] >= 0 for row in rows)

    def test_time_vs_alpha(self, city):
        rows = time_vs_alpha([city], [1000.0, 2000.0], max_stops=8)
        assert len(rows) == 2
        assert {row["paper_alpha"] for row in rows} == {1000.0, 2000.0}


class TestAblation:
    def test_all_variants_run(self, city, alpha):
        rows = ablation_study(
            city, [6], alpha=alpha, variants=list(ABLATION_VARIANTS)
        )
        assert len(rows) == len(ABLATION_VARIANTS)
        utilities = {row["variant"]: row["utility"] for row in rows}
        # The selection variants agree; refinement-less differs.
        assert utilities["vanilla"] == pytest.approx(
            utilities["EBRR"], rel=0.25
        )

    def test_time_is_median_of_fresh_engine_runs(self, city, alpha, monkeypatch):
        from repro.eval import experiments

        plan_route = experiments.plan_route
        engines = []
        readings = iter([9.0, 0.3, 0.1, 0.2])  # the warm-up, then one cell

        def timed(instance, config, *, engine):
            engines.append(engine)
            result = plan_route(instance, config, engine=engine)
            timings = dict(result.timings, total=next(readings))
            return dataclasses.replace(result, timings=timings)

        monkeypatch.setattr(experiments, "plan_route", timed)
        rows = ablation_study(city, [6], alpha=alpha, variants=["EBRR"])
        assert rows[0]["time_s"] == 0.2
        assert len(set(map(id, engines))) == 4

    def test_unknown_variant_rejected(self, city, alpha):
        with pytest.raises(ConfigurationError, match="unknown"):
            ablation_study(city, [6], alpha=alpha, variants=["nope"])

    def test_refinement_adds_stops(self, city, alpha):
        rows = ablation_study(
            city, [12], alpha=alpha,
            variants=["EBRR", "w/o path refinement"],
        )
        stops = {row["variant"]: row["num_stops"] for row in rows}
        assert stops["EBRR"] >= stops["w/o path refinement"]


class TestCaseStudy:
    def test_rows(self, city, alpha):
        from repro.demand import ridership_demand

        queries = ridership_demand(city.transit, 800, seed=3)
        rows = case_study(city, queries, max_stops=8, alpha=alpha)
        assert len(rows) == 3
        for row in rows:
            assert 0 <= row["uncovered_covered"] <= row["uncovered_total"]
            assert 0.0 <= row["coverage_pct"] <= 100.0


class TestDatasetStatistics:
    def test_table(self, city):
        rows = dataset_statistics([city])
        assert rows[0]["dataset"] == "Chicago"
        assert rows[0]["paper_V"] == 58_337
