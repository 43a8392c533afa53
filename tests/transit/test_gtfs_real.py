"""Unit tests for the standard-GTFS importer."""

import math

import pytest

from repro.exceptions import DataFormatError, TransitError
from repro.network.dimacs import KM_PER_DEGREE
from repro.transit.gtfs_real import GtfsImportReport, load_gtfs_feed


def _write_feed(directory, stops, trips, stop_times):
    """stops: [(id, lat, lon)], trips: [(route, trip)],
    stop_times: [(trip, stop, seq)]."""
    (directory / "stops.txt").write_text(
        "stop_id,stop_name,stop_lat,stop_lon\n"
        + "".join(f"{s},{s}-name,{lat},{lon}\n" for s, lat, lon in stops)
    )
    (directory / "trips.txt").write_text(
        "route_id,service_id,trip_id\n"
        + "".join(f"{r},weekday,{t}\n" for r, t in trips)
    )
    (directory / "stop_times.txt").write_text(
        "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n"
        + "".join(f"{t},,,{s},{q}\n" for t, s, q in stop_times)
    )


def _lonlat(network, node):
    """Inverse of the importer's projection at cos_lat = 1."""
    x, y = network.coordinate(node)
    return y / KM_PER_DEGREE, x / KM_PER_DEGREE  # (lat, lon)


@pytest.fixture
def feed_dir(tmp_path, grid_network):
    """A two-route feed whose stops sit exactly on grid nodes."""
    route_a_nodes = [0, 2, 4]
    route_b_nodes = [4, 16, 28]
    stops = []
    for node in sorted(set(route_a_nodes + route_b_nodes)):
        lat, lon = _lonlat(grid_network, node)
        stops.append((f"s{node}", lat, lon))
    trips = [("A", "A1"), ("A", "A2"), ("B", "B1")]
    stop_times = (
        # A1 is the longer (representative) trip for route A
        [("A1", f"s{n}", i) for i, n in enumerate(route_a_nodes)]
        + [("A2", f"s{n}", i) for i, n in enumerate(route_a_nodes[:2])]
        + [("B1", f"s{n}", i) for i, n in enumerate(route_b_nodes)]
    )
    _write_feed(tmp_path, stops, trips, stop_times)
    return tmp_path


class TestImport:
    def test_routes_and_stops(self, grid_network, feed_dir):
        transit, report = load_gtfs_feed(grid_network, feed_dir, cos_lat=1.0)
        assert transit.num_routes == 2
        assert report.num_routes == 2
        assert report.num_stops == 5
        by_id = {r.route_id: r for r in transit.routes()}
        assert list(by_id["A"].stops) == [0, 2, 4]
        assert list(by_id["B"].stops) == [4, 16, 28]

    def test_snapping_exact_on_node_positions(self, grid_network, feed_dir):
        _, report = load_gtfs_feed(grid_network, feed_dir, cos_lat=1.0)
        assert report.max_snap_km == pytest.approx(0.0, abs=1e-6)

    def test_offset_stops_snap_to_nearest(self, grid_network, tmp_path):
        lat, lon = _lonlat(grid_network, 7)
        # nudge the stop 100 m east: still snaps to node 7
        stops = [("x", lat, lon + 0.1 / KM_PER_DEGREE),
                 ("y", *_lonlat(grid_network, 9))]
        _write_feed(
            tmp_path, stops, [("R", "T")],
            [("T", "x", 0), ("T", "y", 1)],
        )
        transit, report = load_gtfs_feed(grid_network, tmp_path, cos_lat=1.0)
        assert list(transit.routes()[0].stops) == [7, 9]
        assert report.max_snap_km == pytest.approx(0.1, abs=1e-3)

    def test_far_stop_snaps_to_its_nearest_node(self, grid_network, tmp_path):
        # Node 5 is the 5 km network's south-east corner; the stop sits
        # 40 km east of it, far past the network's extent.
        lat, lon = _lonlat(grid_network, 5)
        stops = [("a", *_lonlat(grid_network, 0)),
                 ("far", lat, lon + 40.0 / KM_PER_DEGREE)]
        _write_feed(
            tmp_path, stops, [("R", "T")],
            [("T", "a", 0), ("T", "far", 1)],
        )
        transit, report = load_gtfs_feed(grid_network, tmp_path, cos_lat=1.0)
        assert list(transit.routes()[0].stops) == [0, 5]
        assert report.max_snap_km == pytest.approx(40.0, abs=1e-6)

    def test_representative_trip_is_longest(self, grid_network, feed_dir):
        transit, _ = load_gtfs_feed(grid_network, feed_dir, cos_lat=1.0)
        route_a = next(r for r in transit.routes() if r.route_id == "A")
        assert route_a.num_stops == 3  # A1, not the 2-stop A2

    def test_route_paths_valid(self, grid_network, feed_dir):
        transit, _ = load_gtfs_feed(grid_network, feed_dir, cos_lat=1.0)
        for route in transit.routes():
            route.validate_on(grid_network)

    def test_plannable_after_import(self, grid_network, feed_dir):
        from repro.core import BRRInstance, EBRRConfig, plan_route
        from repro.demand.query import QuerySet

        transit, _ = load_gtfs_feed(grid_network, feed_dir, cos_lat=1.0)
        queries = QuerySet(grid_network, [30, 31, 32, 33, 34, 35])
        instance = BRRInstance(transit, queries, alpha=1.0)
        config = EBRRConfig(max_stops=4, max_adjacent_cost=2.0, alpha=1.0)
        result = plan_route(instance, config)
        assert result.route.num_stops >= 2


class TestErrors:
    def test_missing_file(self, grid_network, tmp_path):
        with pytest.raises(DataFormatError, match="missing GTFS"):
            load_gtfs_feed(grid_network, tmp_path)

    def test_missing_columns(self, grid_network, tmp_path):
        (tmp_path / "stops.txt").write_text("stop_id\nx\n")
        (tmp_path / "trips.txt").write_text("route_id,trip_id\nR,T\n")
        (tmp_path / "stop_times.txt").write_text(
            "trip_id,stop_id,stop_sequence\nT,x,0\n"
        )
        with pytest.raises(DataFormatError, match="header"):
            load_gtfs_feed(grid_network, tmp_path)

    def test_bad_latitude(self, grid_network, tmp_path):
        _write_feed(
            tmp_path, [("x", "not-a-number", 0.0)], [("R", "T")],
            [("T", "x", 0)],
        )
        with pytest.raises(DataFormatError):
            load_gtfs_feed(grid_network, tmp_path)

    def test_non_finite_coordinates(self, grid_network, tmp_path):
        _write_feed(
            tmp_path, [("x", "nan", 0.0), ("y", 0.0, 0.0)], [("R", "T")],
            [("T", "x", 0), ("T", "y", 1)],
        )
        with pytest.raises(DataFormatError, match="finite"):
            load_gtfs_feed(grid_network, tmp_path, cos_lat=1.0)

    def test_single_stop_route_skipped(self, grid_network, tmp_path):
        lat, lon = _lonlat(grid_network, 3)
        _write_feed(tmp_path, [("x", lat, lon)], [("R", "T")], [("T", "x", 0)])
        with pytest.raises(TransitError, match="no usable routes"):
            load_gtfs_feed(grid_network, tmp_path, cos_lat=1.0)

    def test_skipped_routes_reported(self, grid_network, tmp_path):
        lat0, lon0 = _lonlat(grid_network, 0)
        lat4, lon4 = _lonlat(grid_network, 4)
        lat9, lon9 = _lonlat(grid_network, 9)
        _write_feed(
            tmp_path,
            [("a", lat0, lon0), ("b", lat4, lon4), ("c", lat9, lon9)],
            [("good", "G"), ("bad", "B")],
            [("G", "a", 0), ("G", "b", 1), ("B", "c", 0)],
        )
        transit, report = load_gtfs_feed(grid_network, tmp_path, cos_lat=1.0)
        assert transit.num_routes == 1
        assert report.skipped_routes == ["bad"]
