"""Unit tests for the synthetic trace generator and its calibration."""

import pytest

from repro.traces.calibration import calibration_failures, check_calibration, compute_calibration_statistics
from repro.traces.generator import HUAWEI_FLAVORS, TraceGenerator, TraceGeneratorConfig


class TestTraceGeneratorConfig:
    def test_defaults_valid(self):
        config = TraceGeneratorConfig()
        assert config.num_requests > 0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            TraceGeneratorConfig(num_requests=0)
        with pytest.raises(ValueError):
            TraceGeneratorConfig(num_functions=0)

    def test_invalid_cold_start_fraction(self):
        with pytest.raises(ValueError):
            TraceGeneratorConfig(cold_start_fraction=1.5)

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            TraceGeneratorConfig(utilization_correlation=2.0)

    def test_empty_flavors_rejected(self):
        with pytest.raises(ValueError):
            TraceGeneratorConfig(flavors=())


class TestTraceGenerator:
    def test_request_count(self, small_trace):
        assert len(small_trace) == 2_000

    def test_deterministic_given_seed(self):
        config = TraceGeneratorConfig(num_requests=200, num_functions=10, seed=42)
        a = TraceGenerator(config).generate()
        b = TraceGenerator(config).generate()
        assert [r.duration_s for r in a] == [r.duration_s for r in b]
        assert [r.usage.cpu_seconds for r in a] == [r.usage.cpu_seconds for r in b]

    def test_different_seed_different_trace(self):
        a = TraceGenerator(TraceGeneratorConfig(num_requests=200, num_functions=10, seed=1)).generate()
        b = TraceGenerator(TraceGeneratorConfig(num_requests=200, num_functions=10, seed=2)).generate()
        assert [r.duration_s for r in a] != [r.duration_s for r in b]

    def test_flavors_come_from_catalog(self, small_trace):
        flavors = set(HUAWEI_FLAVORS)
        for record in small_trace:
            assert (record.alloc_vcpus, record.alloc_memory_gb) in flavors

    def test_arrivals_sorted_and_within_span(self, small_trace):
        arrivals = [r.arrival_s for r in small_trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] <= 3600.0

    def test_usage_within_allocation(self, small_trace):
        for record in small_trace:
            assert record.usage.cpu_seconds <= record.alloc_vcpus * record.duration_s + 1e-9
            assert record.usage.memory_gb <= record.alloc_memory_gb + 1e-9

    def test_every_pod_has_cold_start_record(self, small_trace):
        cold_pods = {c.pod_id for c in small_trace.cold_starts}
        request_pods = {r.pod_id for r in small_trace}
        assert request_pods <= cold_pods

    def test_cold_start_flags_match_records(self, small_trace):
        cold_request_pods = {r.pod_id for r in small_trace if r.cold_start}
        cold_pods = {c.pod_id for c in small_trace.cold_starts}
        assert cold_request_pods <= cold_pods

    def test_cold_starts_list_subsequent_requests(self, small_trace):
        by_pod = {}
        for record in small_trace:
            by_pod.setdefault(record.pod_id, []).append(record.request_id)
        for cold in small_trace.cold_starts:
            assert list(cold.subsequent_request_ids) == by_pod.get(cold.pod_id, [])

    def test_functions_registered(self, small_trace):
        assert len(small_trace.functions) == 40
        for record in small_trace:
            assert record.function_id in small_trace.functions

    def test_duration_floor_respected(self, small_trace):
        assert min(r.duration_s for r in small_trace) >= 1e-3 - 1e-12


class TestCalibration:
    def test_calibrated_trace_passes_all_targets(self, calibrated_trace):
        assert calibration_failures(calibrated_trace) == []

    def test_mean_duration_near_target(self, calibrated_trace):
        stats = compute_calibration_statistics(calibrated_trace)
        assert stats["mean_duration_s"] == pytest.approx(0.05819, rel=0.15)

    def test_correlation_in_band(self, calibrated_trace):
        stats = compute_calibration_statistics(calibrated_trace)
        assert 0.25 <= stats["util_pearson"] <= 0.80
        assert 0.25 <= stats["util_spearman"] <= 0.80

    def test_check_calibration_report_structure(self, calibrated_trace):
        report = check_calibration(calibrated_trace)
        for entry in report.values():
            assert set(entry) >= {"measured", "paper", "lower", "upper", "ok"}

    def test_empty_trace_rejected(self):
        from repro.traces.schema import Trace

        with pytest.raises(ValueError):
            compute_calibration_statistics(Trace([]))
