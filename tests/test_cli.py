"""Unit tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_city_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--city", "atlantis"])

    def test_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.city == "chicago"
        assert args.max_stops == 20
        assert args.max_adjacent_cost == 2.0


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--city", "orlando", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Orlando" in out
        assert "S_existing" in out

    def test_plan(self, capsys):
        code = main(
            ["plan", "--city", "orlando", "--scale", "0.05", "-k", "6"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stops:" in out
        assert "utility" in out

    def test_plan_explain(self, capsys):
        code = main(
            ["plan", "--city", "orlando", "--scale", "0.05", "-k", "5",
             "--explain"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "EBRR run report" in out
        assert "Theorem 4 guarantee" in out

    def test_plan_explicit_alpha(self, capsys):
        code = main(
            ["plan", "--city", "orlando", "--scale", "0.05", "-k", "6",
             "--alpha", "10.0"]
        )
        assert code == 0
        assert "alpha=10.00" in capsys.readouterr().out

    def test_sweep_with_csv(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code = main(
            ["sweep", "--city", "orlando", "--scale", "0.05",
             "--ks", "4,6", "--csv", str(target)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Walking cost vs K" in out
        assert "Connectivity vs K" in out
        assert target.exists()
        header = target.read_text().splitlines()[0]
        assert "walk_cost" in header

    def test_sweep_bad_ks(self, capsys):
        assert main(["sweep", "--ks", "4,banana"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_sweep_empty_ks(self, capsys):
        assert main(["sweep", "--ks", ""]) == 2

    def test_case_study(self, capsys, tmp_path):
        svg = tmp_path / "map.svg"
        geojson = tmp_path / "route.geojson"
        code = main(
            ["case-study", "--city", "orlando", "--scale", "0.05",
             "-k", "5", "--svg", str(svg), "--geojson", str(geojson)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert svg.exists()
        assert geojson.exists()
        assert "map written" in out
        import json

        doc = json.loads(geojson.read_text())
        assert doc["type"] == "FeatureCollection"


class TestTrace:
    def test_plan_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        from repro.obs import load_chrome_trace

        target = tmp_path / "plan-trace.json"
        code = main(
            ["plan", "--city", "orlando", "--scale", "0.05", "-k", "5",
             "--trace", str(target)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert target.exists()
        assert "trace written to" in out
        spans, metrics = load_chrome_trace(str(target))
        names = {s.name for s in spans}
        assert "plan_route" in names and "preprocess" in names
        assert metrics["counters"]["search.total.searches"] > 0

    def test_plan_trace_covers_dataset_build_and_calibration(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.datasets import registry
        from repro.obs import load_chrome_trace

        # An empty dataset cache, so the city is built inside the trace.
        monkeypatch.setattr(registry, "_CACHE", {})
        target = tmp_path / "plan-trace.json"
        assert main(
            ["plan", "--city", "orlando", "--scale", "0.05", "-k", "5",
             "--trace", str(target)]
        ) == 0
        capsys.readouterr()
        spans, _ = load_chrome_trace(str(target))
        roots = [s.name for s in spans if s.parent is None]
        assert roots == ["datasets.load", "eval.calibrate_alpha", "plan_route"]

    def test_trace_summarize_round_trip(self, capsys, tmp_path):
        target = tmp_path / "plan-trace.json"
        assert main(
            ["plan", "--city", "orlando", "--scale", "0.05", "-k", "5",
             "--trace", str(target)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(target)]) == 0
        out = capsys.readouterr().out
        assert "trace summary:" in out
        assert "plan_route" in out
        assert "search.total.searches" in out

    def test_trace_summarize_missing_file(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "nope.json")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_summarize_rejects_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": "nope"}')
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err
