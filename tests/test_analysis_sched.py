"""Tests for the §4 analysis modules (Figures 10-12, Table 3, and the exploit row)."""

import pytest

from repro.analysis.exploit import exploit_summary
from repro.analysis.overallocation import (
    aws_memory_to_vcpus,
    figure10_allocation_sweep,
    figure10_jump_positions,
    figure10_summary,
)
from repro.analysis.quantization import figure11_series, figure11_summary
from repro.analysis.throttle import (
    figure12_cfs_vs_eevdf,
    figure12_provider_profiles,
    infer_scheduling_parameters_by_matching,
    profile_configuration,
    table3_inference,
)


class TestFigure10:
    @pytest.fixture(scope="class")
    def sweep(self):
        fractions = [aws_memory_to_vcpus(m) for m in (128, 256, 512, 896, 1408, 1769)]
        return figure10_allocation_sweep(
            provider="aws_lambda", vcpu_fractions=fractions, samples_per_point=8, seed=5
        )

    def test_memory_to_vcpus_mapping(self):
        assert aws_memory_to_vcpus(1769) == pytest.approx(1.0)
        assert aws_memory_to_vcpus(128) == pytest.approx(0.0724, abs=1e-3)
        with pytest.raises(ValueError):
            aws_memory_to_vcpus(0)

    def test_empirical_at_or_below_expected(self, sweep):
        """Figure 10: overallocation makes the empirical mean at most the reciprocal expectation."""
        for row in sweep:
            assert row["empirical_mean_duration_ms"] <= row["expected_duration_ms"] * 1.05

    def test_duration_decreases_with_allocation(self, sweep):
        ordered = sorted(sweep, key=lambda r: r["vcpu_fraction"])
        assert ordered[0]["empirical_mean_duration_ms"] > ordered[-1]["empirical_mean_duration_ms"]

    def test_full_allocation_runs_at_native_speed(self, sweep):
        full = [r for r in sweep if r["vcpu_fraction"] == pytest.approx(1.0)][0]
        assert full["empirical_mean_duration_ms"] == pytest.approx(16.0, rel=0.05)

    def test_plateau_above_first_jump(self, sweep):
        """§4.1: shrinking the allocation from 1 vCPU initially does not slow the function."""
        by_memory = {round(r["memory_mb"]): r for r in sweep}
        assert by_memory[1408]["empirical_mean_duration_ms"] == pytest.approx(
            by_memory[1769]["empirical_mean_duration_ms"], rel=0.15
        )

    def test_summary_fields(self, sweep):
        summary = figure10_summary(sweep)
        assert summary["num_points"] == len(sweep)
        assert summary["fraction_at_or_below_expected"] >= 0.8
        assert summary["mean_overallocation_ratio_subcore"] >= 1.0

    def test_jump_positions_harmonic(self):
        rows = figure10_jump_positions(cpu_time_s=0.016, max_jumps=4)
        fractions = [row["vcpu_fraction"] for row in rows]
        assert fractions[0] == pytest.approx(0.8)
        assert fractions[1] == pytest.approx(0.4)
        # Memory positions follow ~1400 x 1/n MB as the paper observes.
        assert rows[0]["memory_mb"] == pytest.approx(1415, rel=0.01)


class TestFigure11:
    def test_series_covers_all_periods(self):
        rows = figure11_series(periods_ms=(5.0, 100.0), vcpu_fractions=(0.25, 0.5, 1.0))
        assert len(rows) == 6

    def test_longer_periods_deviate_more(self):
        """Figure 11: the 100 ms period shows a larger deviation from the ideal than 5 ms."""
        summary = {row["period_ms"]: row for row in figure11_summary(figure11_series())}
        assert summary[100.0]["mean_abs_deviation_ms"] > summary[5.0]["mean_abs_deviation_ms"]
        assert summary[100.0]["max_abs_deviation_ms"] > summary[5.0]["max_abs_deviation_ms"]

    def test_duration_never_below_cpu_time(self):
        for row in figure11_series(periods_ms=(20.0,), vcpu_fractions=(0.1, 0.5, 1.0)):
            assert row["duration_ms"] >= 51.8 - 1e-6


class TestFigure12AndTable3:
    def test_provider_profiles_quantization(self):
        rows = figure12_provider_profiles(
            configurations=(
                ("aws_0.25", "aws_lambda", 0.25),
                ("gcp_0.25", "gcp_run_functions", 0.25),
            ),
            exec_duration_s=2.0,
            invocations=3,
        )
        by_label = {row["configuration"]: row for row in rows}
        # AWS throttle intervals are ~20 ms multiples; GCP's are ~100 ms.
        assert by_label["aws_0.25"]["throttle_interval_p50_ms"] == pytest.approx(20.0, abs=2.0)
        assert by_label["gcp_0.25"]["throttle_interval_p50_ms"] == pytest.approx(100.0, abs=10.0)

    def test_aws_obtained_cpu_quantized_at_4ms(self):
        profile = profile_configuration(0.072, 0.020, 250, exec_duration_s=2.0, invocations=3, seed=1)
        obtained_ms = [v * 1e3 for v in profile.obtained_cpu_times_s()]
        assert obtained_ms, "profiler should observe throttles"
        # Bursts are cut at scheduler ticks: at most ~2 tick intervals of CPU per
        # burst (one tick of lagged accounting plus one undetected micro-gap).
        assert max(obtained_ms) <= 8.5
        import numpy as np

        assert float(np.median(obtained_ms)) <= 4.5

    def test_cfs_vs_eevdf_overrun_ordering(self):
        """Figure 12(d): higher timer frequency and EEVDF both reduce overrun."""
        rows = figure12_cfs_vs_eevdf(exec_duration_s=2.0, invocations=3)
        by_label = {row["configuration"]: row for row in rows}
        assert (
            by_label["cfs_1000hz"]["obtained_cpu_mean_ms"]
            <= by_label["cfs_250hz"]["obtained_cpu_mean_ms"] + 1e-6
        )
        assert (
            by_label["eevdf_250hz"]["obtained_cpu_mean_ms"]
            <= by_label["cfs_250hz"]["obtained_cpu_mean_ms"] + 1e-6
        )
        assert by_label["cfs_1000hz"]["mean_overrun_ratio"] <= by_label["cfs_250hz"]["mean_overrun_ratio"]
        assert by_label["eevdf_250hz"]["mean_overrun_ratio"] <= by_label["cfs_250hz"]["mean_overrun_ratio"]

    def test_table3_recovers_configured_parameters(self):
        """Table 3: the inference recovers each provider's period and CONFIG_HZ."""
        rows = table3_inference(exec_duration_s=3.0, invocations=6)
        for row in rows:
            assert row["inferred_period_ms"] == pytest.approx(row["configured_period_ms"])
            assert row["inferred_tick_hz"] == pytest.approx(row["configured_tick_hz"])

    def test_matching_inference_gcp(self):
        profile = profile_configuration(0.25, 0.100, 1000, exec_duration_s=3.0, invocations=6, seed=3)
        inferred = infer_scheduling_parameters_by_matching(
            profile, vcpu_fraction=0.25, reference_exec_duration_s=3.0, reference_invocations=6
        )
        assert inferred["period_ms"] == pytest.approx(100.0)
        assert inferred["tick_hz"] == pytest.approx(1000)

    def test_no_throttle_profile_inference_is_nan(self):
        profile = profile_configuration(1.0, 0.020, 250, exec_duration_s=0.5, invocations=1)
        inferred = infer_scheduling_parameters_by_matching(profile, vcpu_fraction=1.0)
        assert inferred["period_ms"] != inferred["period_ms"]  # NaN


class TestExploitRow:
    def test_summary_rows(self):
        rows = exploit_summary()
        by_name = {row["exploit"]: row for row in rows}
        intermittent = by_name["intermittent_execution_aws"]
        assert intermittent["billable_gb_seconds_reduction"] > 0.4
        assert intermittent["cost_change"] > 0
        background = by_name["keepalive_background_task_azure"]
        assert background["cost_change"] < 0
