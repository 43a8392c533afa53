"""Per-request observability: one span tree per request, exportable and
store-linkable.

Each POST must leave behind (a) a request-scoped trace whose root span
carries the request id, (b) a JSONL export that round-trips through
``load_jsonl`` and validates against the Chrome ``chrome://tracing``
schema, and (c) — when ``$REPRO_STORE`` is set — a run row plus a trace
pointer linked to it.
"""

import os

import pytest

from repro.obs import Trace, chrome_trace, load_jsonl, validate_chrome_trace
from repro.serve import AdmissionController
from repro.store import RunStore

from .conftest import CITY


@pytest.fixture
def traced_harness(tmp_path, make_harness):
    trace_dir = tmp_path / "traces"
    harness = make_harness(trace_dir=str(trace_dir))
    return harness, trace_dir


def request_files(trace_dir):
    return sorted(trace_dir.glob("req-*.jsonl"))


class TestTraceExport:
    def test_one_jsonl_per_post(self, traced_harness):
        harness, trace_dir = traced_harness
        for _ in range(2):
            status, _ = harness.post("/v1/plan", {"dataset": CITY})
            assert status == 200
        status, _ = harness.post(
            "/v1/journey", {"dataset": CITY, "origin": 0, "destination": 3}
        )
        assert status == 200
        files = request_files(trace_dir)
        assert len(files) == 3
        # GETs are admission-free probes and must NOT write traces.
        harness.get("/healthz")
        harness.get("/v1/stats")
        assert len(request_files(trace_dir)) == 3

    def test_request_ids_are_distinct_and_match_files(self, traced_harness):
        harness, trace_dir = traced_harness
        ids = []
        for _ in range(3):
            status, body = harness.post("/v1/plan", {"dataset": CITY})
            assert status == 200
            ids.append(body["request_id"])
        assert len(set(ids)) == 3
        names = {path.name for path in request_files(trace_dir)}
        assert names == {f"{rid}.jsonl" for rid in ids}

    def test_span_tree_covers_request_and_planning(self, traced_harness):
        harness, trace_dir = traced_harness
        status, body = harness.post("/v1/plan", {"dataset": CITY})
        assert status == 200
        (path,) = request_files(trace_dir)
        spans, _metrics = load_jsonl(str(path))
        names = [s.name for s in spans]
        assert "request" in names
        assert "serve.plan" in names
        assert "plan_route" in names  # library phase spans nest underneath

        root = next(s for s in spans if s.name == "request")
        assert root.attrs["request_id"] == body["request_id"]
        assert root.attrs["endpoint"] == "/v1/plan"
        assert root.attrs["dataset"] == CITY
        assert root.parent is None
        # Everything else hangs off the request root — a real tree, not
        # a flat list of disconnected spans.
        indices = {s.index for s in spans}
        for span_ in spans:
            if span_ is not root:
                assert span_.parent in indices

    def test_trace_validates_against_chrome_schema(self, traced_harness):
        harness, trace_dir = traced_harness
        status, _ = harness.post("/v1/plan", {"dataset": CITY})
        assert status == 200
        (path,) = request_files(trace_dir)
        spans, _ = load_jsonl(str(path))
        trace = Trace(lane="serve")
        trace.spans = spans
        assert validate_chrome_trace(chrome_trace(trace)) == []

    def test_update_trace_includes_incremental_spans(self, traced_harness):
        harness, trace_dir = traced_harness
        status, _ = harness.post("/v1/update", {"dataset": CITY, "add": [1]})
        assert status == 200
        (path,) = request_files(trace_dir)
        spans, _ = load_jsonl(str(path))
        names = [s.name for s in spans]
        assert "serve.update" in names
        assert "update" in names  # the incremental-repair phase span


class TestStoreIntegration:
    def test_requests_land_as_linked_store_rows(
        self, tmp_path, monkeypatch, make_harness
    ):
        db = tmp_path / "runs.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(db))
        trace_dir = tmp_path / "traces"
        harness = make_harness(trace_dir=str(trace_dir))

        status, body = harness.post("/v1/plan", {"dataset": CITY})
        assert status == 200

        store = RunStore(str(db))
        (run,) = store.runs(kind="serve")
        assert run["name"] == "/v1/plan"
        assert run["dataset"] == CITY
        metrics = {
            row["metric"]: row["value"]
            for row in store.metrics(run_id=run["id"])
        }
        assert metrics["request"] == body["request_id"]
        assert metrics["latency_s"] > 0
        assert metrics["spans"] >= 3

        (trace_row,) = store.traces(run_id=run["id"])
        assert os.path.basename(trace_row["path"]) == f"{body['request_id']}.jsonl"

    def test_no_store_env_means_no_rows_and_no_failures(
        self, tmp_path, monkeypatch, make_harness
    ):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        harness = make_harness(trace_dir=str(tmp_path / "traces"))
        status, _ = harness.post("/v1/plan", {"dataset": CITY})
        assert status == 200

    def test_shed_requests_write_no_trace(self, tmp_path, make_harness):
        trace_dir = tmp_path / "traces"
        harness = make_harness(
            admission=AdmissionController(max_queued=0),
            trace_dir=str(trace_dir),
        )
        with harness.service.admission.admit():
            status, _ = harness.post("/v1/plan", {"dataset": CITY})
        assert status == 429
        assert request_files(trace_dir) == []
