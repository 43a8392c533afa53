"""Admission control: one request at a time, queue shedding, deadlines.

The unit tests pin the controller's semantics in isolation; the HTTP
tests then prove the same semantics hold on the wire — a saturated
daemon answers 429/503 with clean JSON bodies instead of hanging or
leaking a traceback.
"""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import ConfigurationError
from repro.serve import (
    AdmissionController,
    AdmissionRejected,
    DeadlineExceeded,
    QueueFull,
)

from .conftest import CITY


class TestControllerUnit:
    def test_admit_and_release(self):
        controller = AdmissionController()
        with controller.admit():
            assert controller.stats()["in_flight"] == 1
        stats = controller.stats()
        assert stats["in_flight"] == 0
        assert stats["admitted"] == 1
        assert stats["completed"] == 1

    def test_queue_full_is_429(self):
        controller = AdmissionController(max_queued=0)
        with controller.admit():
            with pytest.raises(QueueFull) as excinfo:
                controller.admit()
        assert excinfo.value.status == 429
        assert isinstance(excinfo.value, AdmissionRejected)
        assert controller.stats()["rejected_queue_full"] == 1

    def test_deadline_exceeded_is_503(self):
        controller = AdmissionController(max_queued=4)
        with controller.admit():
            with pytest.raises(DeadlineExceeded) as excinfo:
                controller.admit(timeout_s=0.05)
        assert excinfo.value.status == 503
        stats = controller.stats()
        assert stats["rejected_deadline"] == 1
        assert stats["queued"] == 0  # the expired waiter left the queue

    def test_queued_request_proceeds_when_slot_frees(self):
        controller = AdmissionController(max_queued=4)
        first = controller.admit()

        results = []

        def waiter():
            with controller.admit(timeout_s=30.0):
                results.append("admitted")

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(waiter)
            # Release the slot while the second request queues.
            first.__exit__(None, None, None)
            future.result(timeout=30)
        assert results == ["admitted"]
        assert controller.stats()["admitted"] == 2

    def test_admits_one_request_at_a_time(self):
        """Admission is the daemon's only serialization of the planning
        core: under contention no two admitted blocks overlap."""
        workers = 8
        controller = AdmissionController(max_queued=workers)
        guard = threading.Lock()
        inside = [0]
        most = [0]

        def work(_):
            with controller.admit(timeout_s=30.0):
                with guard:
                    inside[0] += 1
                    most[0] = max(most[0], inside[0])
                time.sleep(0.002)
                with guard:
                    inside[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for future in [pool.submit(work, i) for i in range(4 * workers)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert most[0] == 1
        stats = controller.stats()
        assert stats["admitted"] == stats["completed"] == 4 * workers
        assert stats["in_flight"] == 0

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queued=-1)
        with pytest.raises(ConfigurationError):
            AdmissionController(default_timeout_s=0.0)


class TestHTTPShedding:
    def test_queue_full_sheds_429_with_clean_body(self, make_harness):
        harness = make_harness(
            admission=AdmissionController(max_queued=0)
        )
        # Occupy the only slot deterministically, then hit the wire.
        with harness.service.admission.admit():
            status, body = harness.post("/v1/plan", {"dataset": CITY})
        assert status == 429
        assert "error" in body and "request_id" in body
        assert "Traceback" not in json.dumps(body)
        assert harness.service.admission.stats()["rejected_queue_full"] >= 1
        # The daemon recovers once the slot frees.
        status, body = harness.post("/v1/plan", {"dataset": CITY})
        assert status == 200

    def test_deadline_timeout_sheds_503_with_clean_body(self, make_harness):
        harness = make_harness(
            admission=AdmissionController(max_queued=4)
        )
        with harness.service.admission.admit():
            status, body = harness.post(
                "/v1/plan", {"dataset": CITY, "timeout_s": 0.2}
            )
        assert status == 503
        assert "no slot freed within" in body["error"]
        assert "Traceback" not in json.dumps(body)
        assert harness.service.admission.stats()["rejected_deadline"] >= 1

    def test_get_endpoints_bypass_admission(self, make_harness):
        """Health and stats probes must keep answering under saturation —
        that is the whole point of having them."""
        harness = make_harness(
            admission=AdmissionController(max_queued=0)
        )
        with harness.service.admission.admit():
            status, body = harness.get("/healthz")
            assert status == 200
            status, stats = harness.get("/v1/stats")
            assert status == 200
            assert stats["admission"]["in_flight"] == 1

    def test_concurrent_saturation_mixes_200_and_429(self, make_harness):
        harness = make_harness(
            admission=AdmissionController(max_queued=0),
            warm=True,  # pre-plan so served requests are fast cache hits
        )

        def fire(i):
            # Distinct shapes defeat the warm default-plan cache, keeping
            # the slot busy long enough for collisions to happen.
            return harness.post(
                "/v1/plan", {"dataset": CITY, "max_stops": 5 + (i % 6)}
            )

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(fire, range(12)))

        statuses = [status for status, _ in outcomes]
        assert set(statuses) <= {200, 429}
        assert 200 in statuses  # progress under load
        assert 429 in statuses  # and real shedding, not silent queueing
        for status, body in outcomes:
            if status == 429:
                assert "error" in body
                assert "Traceback" not in json.dumps(body)
