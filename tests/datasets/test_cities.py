"""Unit tests for the synthetic city dataset builders."""

import hashlib

import pytest

from repro import obs
from repro.datasets.cities import PAPER_SIZES, chicago, nyc, orlando
from repro.datasets.registry import load_city
from repro.exceptions import ConfigurationError


class TestBuilders:
    @pytest.mark.parametrize("builder", [chicago, nyc, orlando])
    def test_complete_dataset(self, builder):
        dataset = builder(0.05)
        assert dataset.network.is_connected()
        assert dataset.transit.num_routes >= 4
        assert len(dataset.transit.existing_stops) >= 4
        assert len(dataset.queries) >= 1000
        stats = dataset.statistics()
        assert stats["S_new"] + stats["S_existing"] == stats["V"]

    def test_chicago_coastline(self):
        """Chicago's lattice is cut on the east: the bounding box is
        wider in y than x."""
        from repro.network.geometry import bounding_box

        dataset = chicago(0.05)
        min_x, min_y, max_x, max_y = bounding_box(dataset.network.coordinates())
        assert (max_y - min_y) > (max_x - min_x)

    def test_nyc_has_regions(self):
        dataset = nyc(0.05)
        assert dataset.regions is not None
        assert [name for name, _ in dataset.regions] == [
            "Brooklyn", "Manhattan", "Queens", "Bronx",
        ]

    def test_chicago_orlando_no_regions(self):
        assert chicago(0.05).regions is None
        assert orlando(0.05).regions is None

    def test_scale_grows_sizes(self):
        small = orlando(0.05)
        large = orlando(0.1)
        assert large.network.num_nodes > small.network.num_nodes
        assert len(large.queries) > len(small.queries)

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            chicago(0.0)
        with pytest.raises(ConfigurationError):
            chicago(1.5)

    def test_deterministic_per_seed(self):
        a = orlando(0.05, seed=3)
        b = orlando(0.05, seed=3)
        assert a.queries.nodes == b.queries.nodes
        assert a.network.num_nodes == b.network.num_nodes

    def test_instance_construction(self):
        dataset = orlando(0.05)
        instance = dataset.instance(alpha=10.0)
        assert instance.alpha == 10.0
        assert len(instance.queries) == len(dataset.queries)
        sub = dataset.queries.subset(dataset.queries.nodes[:100])
        partial = dataset.instance(alpha=10.0, queries=sub)
        assert len(partial.queries) == 100

    def test_paper_sizes_table(self):
        assert PAPER_SIZES["Chicago"]["V"] == 58_337
        assert PAPER_SIZES["NYC"]["Q"] == 793_496
        assert set(PAPER_SIZES) == {"Chicago", "NYC", "Orlando"}


class TestDemandDigests:
    """The query multiset of each benchmark-sized city, pinned: a change
    to demand sampling or snapping that moves one query node fails."""

    @pytest.mark.parametrize(
        "city, scale, digest",
        [
            ("chicago", 0.2, "82a6f9fa85289f2ee204a43afcd3074a89e80f6649d3e1a7eda5886659cd3144"),
            ("chicago", 0.06, "d9601b8dc8de6523aa34bd6a09a66370c3af737222886b85bf0add9c5eb224b6"),
            ("nyc", 0.15, "2fe7271fc8d8b26eb865dc3847296165fc22200212b1da198ec543e9e83e858b"),
            ("nyc", 0.06, "d597ae792c10adf800ab6755965fa6e601bb23b2854c2e627083deb98de44229"),
            ("orlando", 0.2, "3101686af65aa9a542e532573ac735f7beaa81006145109ee828373e3e97a104"),
            ("orlando", 0.08, "a9109c713bfa4d557059c1fc511983af28704a3824adad07c493237f08dc4074"),
        ],
    )
    def test_query_nodes_digest(self, city, scale, digest):
        nodes = load_city(city, scale=scale).queries.nodes
        assert hashlib.sha256(",".join(map(str, nodes)).encode()).hexdigest() == digest


class TestBuildSpans:
    def test_build_is_traced_layer_by_layer(self):
        with obs.tracing() as trace:
            orlando(0.05)
        (load,) = [s for s in trace.spans if s.name == "datasets.load"]
        assert load.attrs == {"city": "Orlando", "scale": 0.05}
        children = {s.name: s for s in trace.children(load.index)}
        assert set(children) == {"datasets.network", "datasets.transit", "datasets.demand"}
        assert sum(s.duration for s in children.values()) >= 0.9 * load.duration
        (snap,) = [s for s in trace.spans if s.name == "demand.snap"]
        assert snap.parent == children["datasets.demand"].index
        # 1000 queries, the 10% uniform background needs no snapping.
        assert snap.attrs["samples"] == 900
        assert 0 <= snap.attrs["widened"] <= snap.attrs["samples"]
