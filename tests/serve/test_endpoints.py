"""Every endpoint over a live socket: happy paths, clean client errors.

The malformed-payload cases all assert the same contract: a JSON error
body with a human-complete ``error`` field and **no traceback text** —
a service that leaks ``Traceback (most recent call last)`` to clients
leaks its internals.
"""

import http.client
import json
import socket
import time

import pytest

from .conftest import CITY


class TestGetEndpoints:
    def test_healthz(self, live):
        status, body = live.get("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["datasets"] == [CITY]
        assert body["uptime_s"] >= 0

    def test_datasets(self, live):
        status, body = live.get("/v1/datasets")
        assert status == 200
        (row,) = body["datasets"]
        assert row["name"] == CITY
        assert row["city"] == CITY
        assert row["max_stops"] == 20
        assert row["kernel"] in ("python", "vectorized")
        assert row["nodes"] > 0
        assert row["queries"] > 0

    def test_stats_shape(self, live):
        status, body = live.get("/v1/stats")
        assert status == 200
        admission = body["admission"]
        for key in (
            "in_flight",
            "queued",
            "admitted",
            "rejected_queue_full",
            "rejected_deadline",
        ):
            assert isinstance(admission[key], int)
        tenant = body["datasets"][CITY]
        cache = tenant["cache"]
        for key in ("capacity", "rows", "points", "hits", "evictions"):
            assert isinstance(cache[key], int)
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert "search.total.searches" in tenant

    def test_unknown_path_404(self, live):
        status, body = live.get("/v1/nope")
        assert status == 404
        assert "unknown path" in body["error"]


class TestComputeEndpoints:
    def test_plan_default_config(self, live):
        status, body = live.post("/v1/plan", {"dataset": CITY})
        assert status == 200
        assert body["dataset"] == CITY
        assert len(body["route"]["stops"]) <= 20
        assert body["route"]["stops"][0] in body["route"]["path"]
        assert body["feasible"] is True
        assert body["violations"] == []
        assert body["metrics"]["num_stops"] == len(body["route"]["stops"])
        assert body["config"]["max_stops"] == 20
        assert set(body["config"]) == {
            "max_stops", "max_adjacent_cost", "alpha", "kernel"
        }
        assert body["request_id"].startswith("req-")
        assert "total" in body["timings"]

    def test_plan_with_overrides(self, live):
        status, body = live.post(
            "/v1/plan",
            {"dataset": CITY, "max_stops": 8, "max_adjacent_cost": 3.0},
        )
        assert status == 200
        assert len(body["route"]["stops"]) <= 8
        assert body["config"]["max_stops"] == 8
        assert body["config"]["max_adjacent_cost"] == 3.0

    def test_journey(self, live):
        status, body = live.post(
            "/v1/journey", {"dataset": CITY, "origin": 0, "destination": 9}
        )
        assert status == 200
        assert body["minutes"] > 0
        assert body["legs"]
        for leg in body["legs"]:
            assert leg["mode"] in ("walk", "ride")
            assert leg["minutes"] >= 0

    def test_journey_same_node_is_free(self, live):
        status, body = live.post(
            "/v1/journey", {"dataset": CITY, "origin": 4, "destination": 4}
        )
        assert status == 200
        assert body["minutes"] == 0.0
        assert body["legs"] == []

    def test_update_add_and_remove(self, live):
        status, before = live.get("/v1/datasets")
        queries_before = before["datasets"][0]["queries"]
        existing_node = live.service.registry.get(CITY).instance.queries.nodes[0]
        status, body = live.post(
            "/v1/update",
            {"dataset": CITY, "add": [1, 2, 3], "remove": [existing_node]},
        )
        assert status == 200
        assert body["queries"] == queries_before + 3 - 1
        assert body["updates_applied"] >= 1
        stats = body["stats"]
        assert stats["searches"] == stats["added_nodes"]
        # The daemon keeps serving plans from the repaired state.
        status, plan = live.post("/v1/plan", {"dataset": CITY})
        assert status == 200
        assert plan["feasible"] is True


class TestCleanErrors:
    def assert_clean(self, body):
        text = json.dumps(body)
        assert "Traceback" not in text
        assert "  File \"" not in text

    def test_unknown_dataset_404(self, live):
        status, body = live.post("/v1/plan", {"dataset": "atlantis"})
        assert status == 404
        assert "atlantis" in body["error"]
        assert CITY in body["error"]  # names what IS being served
        self.assert_clean(body)

    def test_missing_dataset_field(self, live):
        status, body = live.post("/v1/plan", {})
        assert status == 400
        assert "dataset" in body["error"]
        self.assert_clean(body)

    def test_invalid_json_body(self, live):
        status, raw = live.raw_post("/v1/plan", b"{not json")
        assert status == 400
        assert "not valid JSON" in raw
        assert "Traceback" not in raw

    def test_non_object_json_body(self, live):
        status, raw = live.raw_post("/v1/plan", b"[1, 2, 3]")
        assert status == 400
        assert "JSON object" in raw

    def test_wrong_field_types(self, live):
        status, body = live.post(
            "/v1/plan", {"dataset": CITY, "max_stops": "ten"}
        )
        assert status == 400
        assert "max_stops" in body["error"]
        self.assert_clean(body)

    def test_max_stops_below_minimum(self, live):
        status, body = live.post(
            "/v1/plan", {"dataset": CITY, "max_stops": 1}
        )
        assert status == 400
        assert ">= 2" in body["error"]

    @pytest.mark.parametrize(
        "literal",
        [
            b"NaN",
            b"Infinity",
            b"-Infinity",
            pytest.param(b"1" + b"0" * 400, id="int-beyond-double"),
        ],
    )
    @pytest.mark.parametrize("field", ["max_adjacent_cost", "timeout_s"])
    def test_non_finite_number_is_400(self, live, field, literal):
        # Python's json parses these literals; NaN used to reach the
        # planner (500), Infinity used to plan (200), and an integer
        # past the double range raised OverflowError (500).
        body = b'{"dataset": "%s", "%s": %s}' % (
            CITY.encode(), field.encode(), literal
        )
        status, raw = live.raw_post("/v1/plan", body)
        assert status == 400
        assert field in raw and "finite" in raw
        assert "Traceback" not in raw

    def test_journey_out_of_range_node(self, live):
        status, body = live.post(
            "/v1/journey",
            {"dataset": CITY, "origin": 0, "destination": 10**9},
        )
        assert status == 400
        assert "destination" in body["error"]
        self.assert_clean(body)

    def test_journey_missing_field(self, live):
        status, body = live.post("/v1/journey", {"dataset": CITY, "origin": 0})
        assert status == 400
        assert "destination" in body["error"]

    def test_update_without_changes(self, live):
        status, body = live.post("/v1/update", {"dataset": CITY})
        assert status == 400
        assert "add" in body["error"] and "remove" in body["error"]

    def test_update_retiring_absent_node_is_domain_400(self, live):
        status, body = live.post(
            "/v1/update", {"dataset": CITY, "remove": [10**6]}
        )
        assert status == 400
        assert "demand" in body["error"]
        self.assert_clean(body)

    def test_update_non_integer_list(self, live):
        status, body = live.post(
            "/v1/update", {"dataset": CITY, "add": ["a", "b"]}
        )
        assert status == 400
        assert "add" in body["error"]

    def test_post_unknown_path_404(self, live):
        status, body = live.post("/v1/replan", {"dataset": CITY})
        assert status == 404
        assert "unknown path" in body["error"]

    def test_oversized_body_413(self, live):
        blob = b'{"dataset": "' + b"x" * (1 << 20) + b'"}'
        status, raw = live.raw_post("/v1/plan", blob)
        assert status == 413
        assert "exceeds" in raw


class TestTransport:
    def test_keep_alive_requests_do_not_wait_for_delayed_acks(self, live):
        # A response written as headers, then body, waits for the
        # client's delayed ACK of the headers (~40 ms each, Nagle); one
        # write answers a /healthz in about a millisecond.
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4

    def test_negative_content_length_is_400_not_a_hang(self, live):
        # rfile.read(-1) reads until the client closes; this client keeps
        # the connection open, so only an immediate reply passes.
        request = (
            "POST /v1/plan HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{live.port}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: -1\r\n\r\n{}"
        ).encode("latin-1")
        with socket.create_connection(("127.0.0.1", live.port), timeout=5) as sock:
            sock.sendall(request)
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = json.loads(response.read())
        assert response.status == 400
        assert body["error"] == "malformed Content-Length header"
        # The unframed body ends the connection, and the reply says so.
        assert response.getheader("Connection") == "close"
