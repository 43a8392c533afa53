"""The typed metrics registry: semantics and serialization."""

import json

import pytest

from repro.network.engine import SearchStats
from repro.obs import SEARCH_STAT_FIELDS, MetricsRegistry


class TestKinds:
    def test_counter_accumulates_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("searches")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert registry.counter("searches") is counter  # get-or-create

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("rows").set(5)
        registry.gauge("rows").set(3)
        assert registry.gauge("rows").value == 3

    def test_histogram_summary_statistics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("chunk")
        for value in (4.0, 1.0, 7.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 12.0
        assert histogram.min == 1.0
        assert histogram.max == 7.0
        assert histogram.mean == 4.0

    def test_empty_registry_is_falsy(self):
        registry = MetricsRegistry()
        assert not registry
        registry.counter("x").inc()
        assert registry


class TestSearchStatsAbsorption:
    def test_absorb_records_phase_and_total(self):
        registry = MetricsRegistry()
        stats = SearchStats(searches=3, cache_hits=1, settled=40, pushes=50)
        registry.absorb_search_stats("preprocess", stats)
        registry.absorb_search_stats("selection", stats)
        assert registry.counter("search.preprocess.searches").value == 3
        assert registry.counter("search.selection.settled").value == 40
        assert registry.counter("search.total.searches").value == 6
        assert registry.counter("search.total.pushes").value == 100

    def test_absorb_profile_covers_every_field(self):
        registry = MetricsRegistry()
        profile = {"ordering": SearchStats(searches=2, settled=9, pushes=11)}
        registry.absorb_search_profile(profile)
        for field in SEARCH_STAT_FIELDS:
            assert f"search.ordering.{field}" in registry.counters


class TestSerialization:
    def test_as_dict_round_trips(self):
        # The exporters write as_dict() as JSON; reading it back must
        # give the same snapshot.
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2.0)
        registry.histogram("h").observe(4.0)
        snapshot = registry.as_dict()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["histograms"]["h"] == {
            "count": 2, "total": 6.0, "min": 2.0, "max": 4.0
        }

    def test_as_dict_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        assert list(registry.as_dict()["counters"]) == ["alpha", "zeta"]

    def test_names_spans_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a").set(0)
        registry.histogram("c").observe(1)
        assert list(registry.names()) == ["a", "b", "c"]
