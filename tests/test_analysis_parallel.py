"""Tests for repro.analysis.parallel (fan-out with bounded retry)."""

import threading

import pytest

from repro import obs
from repro.analysis import parallel
from repro.analysis.parallel import fan_out
from repro.errors import AnalysisError


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(parallel, "RETRY_BACKOFF", 0.0)


class FlakyTask:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures: int, value: object = "ok"):
        self.failures = failures
        self.value = value
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
            if self.calls <= self.failures:
                raise RuntimeError(f"crash #{self.calls}")
        return self.value


class TestFanOut:
    def test_results_in_insertion_order(self):
        tasks = {"c": lambda: 3, "a": lambda: 1, "b": lambda: 2}
        for jobs in (1, 3):
            results = fan_out(tasks, jobs=jobs)
            assert list(results) == ["c", "a", "b"]
            assert [r for _, r in results.values()] == [3, 1, 2]

    def test_invalid_jobs(self):
        with pytest.raises(AnalysisError):
            fan_out({"a": lambda: 1}, jobs=0)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_crashing_worker_retried_once(self, jobs):
        flaky = FlakyTask(failures=1)
        with obs.FlightRecorder() as recorder:
            results = fan_out({"flaky": flaky, "solid": lambda: 7},
                              jobs=jobs)
        assert results["flaky"][1] == "ok"
        assert results["solid"][1] == 7
        assert flaky.calls == 2
        counters = recorder.metrics.snapshot()["counters"]
        assert counters[
            "analysis.fanout_retries_total{task=flaky}"] == 1

    def test_double_crash_falls_back_to_serial(self):
        flaky = FlakyTask(failures=2)
        with obs.FlightRecorder() as recorder:
            results = fan_out({"flaky": flaky, "solid": lambda: 7},
                              jobs=2)
        assert results["flaky"][1] == "ok"
        assert flaky.calls == 3
        assert list(results) == ["flaky", "solid"]
        counters = recorder.metrics.snapshot()["counters"]
        assert counters[
            "analysis.fanout_serial_fallbacks_total{task=flaky}"] == 1

    def test_permanent_failure_propagates(self):
        def doomed():
            raise ValueError("always broken")

        with pytest.raises(ValueError, match="always broken"):
            fan_out({"doomed": doomed, "solid": lambda: 7}, jobs=2)

    def test_other_tasks_survive_a_permanent_failure_serially(self):
        calls = []

        def doomed():
            calls.append("doomed")
            raise ValueError("always broken")

        with pytest.raises(ValueError):
            fan_out({"solid": lambda: calls.append("solid"),
                     "doomed": doomed}, jobs=2)
        assert "solid" in calls
        # initial try + in-pool retry + serial fallback
        assert calls.count("doomed") == 3

