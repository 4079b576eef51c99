"""Tests for the Figure 2 inflation analysis (billable vs actual resources)."""

import math

import pytest

from repro.billing.catalog import PlatformName
from repro.billing.inflation import FIGURE2_PLATFORMS, InflationAnalyzer, InflationResult


class TestInflationResult:
    def test_aggregate_ratio(self):
        result = InflationResult(
            platform="x",
            billable_cpu_seconds=[2.0, 2.0],
            billable_memory_gb_seconds=[4.0],
            actual_cpu_seconds=[1.0, 1.0],
            actual_memory_gb_seconds=[1.0],
        )
        assert result.aggregate_cpu_inflation == pytest.approx(2.0)
        assert result.aggregate_memory_inflation == pytest.approx(4.0)

    def test_mean_ratio_skips_zero_denominators(self):
        result = InflationResult(
            platform="x",
            billable_cpu_seconds=[2.0, 5.0],
            billable_memory_gb_seconds=[],
            actual_cpu_seconds=[1.0, 0.0],
            actual_memory_gb_seconds=[],
        )
        assert result.mean_cpu_inflation == pytest.approx(2.0)

    def test_empty_result_is_nan(self):
        result = InflationResult(platform="x")
        assert math.isnan(result.aggregate_cpu_inflation)
        assert math.isnan(result.mean_memory_inflation)


class TestInflationAnalyzer:
    @pytest.fixture(scope="class")
    def results(self, small_trace):
        return InflationAnalyzer().analyze(small_trace)

    def test_all_default_platforms_analyzed(self, results):
        assert set(results) == set(FIGURE2_PLATFORMS)

    def test_zero_cpu_requests_excluded(self, small_trace, results):
        expected = len(small_trace.exclude_zero_cpu().requests)
        first = next(iter(results.values()))
        assert len(first.billable_cpu_seconds) == expected

    def test_gcp_has_highest_cpu_inflation(self, results):
        """Figure 2: GCP's 100 ms rounding yields the highest CPU inflation."""
        gcp = results[PlatformName.GCP_RUN_REQUEST].aggregate_cpu_inflation
        for platform, result in results.items():
            if platform is PlatformName.GCP_RUN_REQUEST:
                continue
            if result.aggregate_cpu_inflation > 0:
                assert gcp >= result.aggregate_cpu_inflation

    def test_cloudflare_cpu_inflation_near_one(self, results):
        """Figure 2: usage-based billing shows the lowest inflation (~1.01x)."""
        cloudflare = results[PlatformName.CLOUDFLARE_WORKERS].aggregate_cpu_inflation
        assert 1.0 <= cloudflare <= 1.2

    def test_azure_memory_inflation_lowest_among_memory_billers(self, results):
        azure = results[PlatformName.AZURE_CONSUMPTION].aggregate_memory_inflation
        for platform in (PlatformName.AWS_LAMBDA, PlatformName.GCP_RUN_REQUEST, PlatformName.HUAWEI_FUNCTIONGRAPH):
            assert azure <= results[platform].aggregate_memory_inflation

    def test_all_inflations_at_least_one(self, results):
        """Billable resources never fall below actual usage under any studied model."""
        for result in results.values():
            if result.aggregate_cpu_inflation > 0:
                assert result.aggregate_cpu_inflation >= 0.99
            if result.aggregate_memory_inflation > 0:
                assert result.aggregate_memory_inflation >= 0.99

    def test_accepts_raw_request_list(self, small_trace):
        requests = small_trace.requests[:100]
        results = InflationAnalyzer([PlatformName.AWS_LAMBDA]).analyze(requests)
        assert len(results[PlatformName.AWS_LAMBDA].billable_cpu_seconds) <= 100

    def test_empty_platform_list_analyzes_nothing(self, small_trace):
        assert InflationAnalyzer([]).analyze(small_trace) == {}

    @pytest.mark.parametrize(
        "platform", [PlatformName.GCP_RUN_INSTANCE, PlatformName.AZURE_PREMIUM]
    )
    def test_instance_billed_platform_rejected_up_front(self, platform):
        with pytest.raises(ValueError, match=platform.value):
            InflationAnalyzer([PlatformName.AWS_LAMBDA, platform])
