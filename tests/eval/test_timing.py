"""Unit tests for the timing helpers."""

import time

from repro.obs import stopwatch, timed


class TestStopwatch:
    def test_records_elapsed(self):
        sink = {}
        with stopwatch(sink, "phase"):
            time.sleep(0.01)
        assert sink["phase"] >= 0.005

    def test_records_on_exception(self):
        sink = {}
        try:
            with stopwatch(sink, "phase"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert "phase" in sink


class TestTimed:
    def test_returns_result_and_time(self):
        result, elapsed = timed(lambda: 41 + 1)
        assert result == 42
        assert elapsed >= 0.0
