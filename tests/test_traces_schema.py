"""Unit tests for the trace schema (records, validation, derived quantities)."""

import math

import pytest

from repro.traces.schema import ColdStartRecord, FunctionProfile, RequestRecord, ResourceUsage, Trace


def _request(**overrides):
    defaults = dict(
        request_id="r1",
        function_id="f1",
        pod_id="p1",
        arrival_s=0.0,
        duration_s=0.1,
        usage=ResourceUsage(cpu_seconds=0.05, memory_gb=0.2),
        alloc_vcpus=1.0,
        alloc_memory_gb=0.5,
    )
    defaults.update(overrides)
    return RequestRecord(**defaults)


class TestResourceUsage:
    def test_valid(self):
        usage = ResourceUsage(cpu_seconds=0.1, memory_gb=0.5)
        assert usage.cpu_seconds == 0.1
        assert usage.memory_gb == 0.5

    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            ResourceUsage(cpu_seconds=-0.1, memory_gb=0.5)

    def test_negative_memory_rejected(self):
        with pytest.raises(ValueError):
            ResourceUsage(cpu_seconds=0.1, memory_gb=-0.5)

    def test_zero_usage_allowed(self):
        usage = ResourceUsage(cpu_seconds=0.0, memory_gb=0.0)
        assert usage.cpu_seconds == 0.0


class TestRequestRecord:
    def test_turnaround_includes_init(self):
        record = _request(cold_start=True, init_duration_s=0.4)
        assert record.turnaround_s == pytest.approx(0.5)

    def test_warm_request_turnaround_equals_duration(self):
        record = _request()
        assert record.turnaround_s == pytest.approx(record.duration_s)

    def test_cpu_utilization(self):
        record = _request()
        assert record.cpu_utilization == pytest.approx(0.05 / (1.0 * 0.1))

    def test_cpu_utilization_capped_at_one(self):
        record = _request(usage=ResourceUsage(cpu_seconds=1.0, memory_gb=0.2))
        assert record.cpu_utilization == 1.0

    def test_memory_utilization(self):
        record = _request()
        assert record.memory_utilization == pytest.approx(0.2 / 0.5)

    def test_actual_gb_seconds(self):
        record = _request()
        assert record.actual_memory_gb_seconds == pytest.approx(0.2 * 0.1)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            _request(duration_s=-1.0)

    def test_zero_allocation_rejected(self):
        with pytest.raises(ValueError):
            _request(alloc_vcpus=0.0)

    def test_warm_request_with_init_duration_rejected(self):
        with pytest.raises(ValueError):
            _request(cold_start=False, init_duration_s=0.5)

    def test_zero_duration_utilization_is_zero(self):
        record = _request(duration_s=0.0)
        assert record.cpu_utilization == 0.0


class TestColdStartRecord:
    def test_billable_init_resources(self):
        cold = ColdStartRecord(
            pod_id="p1", function_id="f1", init_duration_s=2.0, alloc_vcpus=0.5, alloc_memory_gb=1.0
        )
        assert cold.init_cpu_seconds == pytest.approx(1.0)
        assert cold.init_memory_gb_seconds == pytest.approx(2.0)

    def test_negative_init_rejected(self):
        with pytest.raises(ValueError):
            ColdStartRecord(
                pod_id="p1", function_id="f1", init_duration_s=-1.0, alloc_vcpus=0.5, alloc_memory_gb=1.0
            )

    def test_zero_allocation_rejected(self):
        with pytest.raises(ValueError):
            ColdStartRecord(
                pod_id="p1", function_id="f1", init_duration_s=1.0, alloc_vcpus=0.0, alloc_memory_gb=1.0
            )


class TestFunctionProfile:
    def test_valid_profile(self):
        profile = FunctionProfile("f1", 1.0, 2.0, 0.05, 0.4, 0.3)
        assert profile.function_id == "f1"

    def test_utilization_bounds_enforced(self):
        with pytest.raises(ValueError):
            FunctionProfile("f1", 1.0, 2.0, 0.05, 1.4, 0.3)

    def test_positive_duration_required(self):
        with pytest.raises(ValueError):
            FunctionProfile("f1", 1.0, 2.0, 0.0, 0.4, 0.3)


class TestTrace:
    def _trace(self):
        requests = [
            _request(request_id="r1", pod_id="p1", usage=ResourceUsage(0.05, 0.2)),
            _request(request_id="r2", pod_id="p1", function_id="f2", usage=ResourceUsage(0.0, 0.2)),
            _request(request_id="r3", pod_id="p2", usage=ResourceUsage(0.01, 0.1)),
        ]
        cold = [ColdStartRecord("p1", "f1", 1.0, 1.0, 0.5)]
        return Trace(requests, cold)

    def test_len_and_iter(self):
        trace = self._trace()
        assert len(trace) == 3
        assert len(list(trace)) == 3

    def test_lookup_by_id(self):
        trace = self._trace()
        assert trace.request("r2").function_id == "f2"
        with pytest.raises(KeyError):
            trace.request("missing")

    def test_requests_for_function_and_pod(self):
        trace = self._trace()
        assert len(trace.requests_for_function("f1")) == 2

    def test_exclude_zero_cpu(self):
        trace = self._trace().exclude_zero_cpu()
        assert len(trace) == 2
        assert all(r.usage.cpu_seconds > 0 for r in trace)

    def test_filter_keeps_matching_cold_starts(self):
        trace = self._trace().filter(lambda r: r.pod_id == "p1")
        assert len(trace) == 2
        assert len(trace.cold_starts) == 1

    def test_summary_counts(self):
        summary = self._trace().summary()
        assert summary["num_requests"] == 3
        assert summary["num_cold_starts"] == 1

    def test_empty_trace_summary(self):
        summary = Trace([]).summary()
        assert summary["num_requests"] == 0
        assert math.isnan(summary["mean_duration_s"])
