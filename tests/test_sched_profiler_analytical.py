"""Tests for the Algorithm-1 profiler, Equation (2), and scheduling presets."""

import math

import pytest

from repro.sched.analytical import (
    expected_duration_reciprocal,
    quantization_jump_allocations,
    theoretical_duration,
    theoretical_duration_series,
)
from repro.sched.cgroup import BandwidthConfig, BandwidthController
from repro.sched.engine import SchedulerConfig, SchedulerSim, TaskResult
from repro.sched.presets import PROVIDER_SCHED_PRESETS, scheduler_config_for
from repro.sched.profiler import ThrottleProfile, ThrottleProfileSet, profile_live, profile_task_result
from repro.sched.task import SimTask, TaskPhase


class TestEquationTwo:
    def test_paper_example_value(self):
        """T=51.8 ms, P=20 ms, Q=10 ms: floor(5.18) periods plus the 1.8 ms remainder."""
        assert theoretical_duration(0.0518, 0.020, 0.010) == pytest.approx(0.1018)

    def test_exact_multiple_branch(self):
        # T = 3Q exactly: (3-1) periods plus one full quota.
        assert theoretical_duration(0.030, 0.020, 0.010) == pytest.approx(0.05)

    def test_quota_at_or_above_period_means_no_limit(self):
        assert theoretical_duration(0.1, 0.02, 0.02) == pytest.approx(0.1)
        assert theoretical_duration(0.1, 0.02, 0.05) == pytest.approx(0.1)

    def test_zero_cpu_time(self):
        assert theoretical_duration(0.0, 0.02, 0.01) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            theoretical_duration(-1.0, 0.02, 0.01)
        with pytest.raises(ValueError):
            theoretical_duration(0.1, 0.0, 0.01)

    def test_duration_at_least_ideal(self):
        """Equation (2) never predicts a duration below the reciprocal expectation's CPU time."""
        for fraction in (0.1, 0.3, 0.7):
            duration = theoretical_duration(0.0518, 0.02, fraction * 0.02)
            assert duration >= 0.0518

    def test_shorter_periods_converge_to_ideal(self):
        """Figure 11: shorter periods track the ideal reciprocal curve more closely.

        The deviation can be negative (the last-period remainder runs at full
        speed -- overallocation), so convergence is about absolute deviation.
        """
        ideal = expected_duration_reciprocal(0.0518, 0.3)
        excess_5ms = abs(theoretical_duration(0.0518, 0.005, 0.3 * 0.005) - ideal)
        excess_100ms = abs(theoretical_duration(0.0518, 0.1, 0.3 * 0.1) - ideal)
        assert excess_5ms < excess_100ms

    def test_series_rows(self):
        rows = theoretical_duration_series(0.0518, 0.02, [0.25, 0.5, 1.0])
        assert len(rows) == 3
        assert rows[-1]["duration_ms"] == pytest.approx(51.8)

    def test_series_rejects_invalid_fraction(self):
        with pytest.raises(ValueError):
            theoretical_duration_series(0.05, 0.02, [0.0])

    def test_jump_allocations_harmonic(self):
        """§4.1: jumps at T/(nP) -- the scaled harmonic sequence."""
        jumps = quantization_jump_allocations(0.016, 0.020, max_jumps=4)
        assert jumps[0] == pytest.approx(0.8)
        assert jumps[1] == pytest.approx(0.4)
        assert jumps[2] == pytest.approx(0.8 / 3)
        # In AWS memory terms the first jump is ~1,415 MB (paper: "slightly above 1400 MB").
        assert jumps[0] * 1769 == pytest.approx(1415, rel=0.01)

    def test_expected_reciprocal_caps_at_one_core(self):
        assert expected_duration_reciprocal(0.1, 2.0) == pytest.approx(0.1)


class TestProfiler:
    def _result_with_gaps(self):
        return TaskResult(
            name="t",
            arrival_s=0.0,
            completion_s=None,
            cpu_consumed_s=0.012,
            run_segments=[(0.0, 0.004), (0.040, 0.044), (0.1, 0.104)],
            throttle_segments=[],
        )

    def test_detects_gaps_above_threshold(self):
        profile = profile_task_result(self._result_with_gaps())
        assert profile.num_throttles == 2
        assert profile.throttle_durations_s()[0] == pytest.approx(0.036)

    def test_ignores_gaps_below_threshold(self):
        result = TaskResult("t", 0.0, None, 0.01, [(0.0, 0.004), (0.0042, 0.008)], [])
        profile = profile_task_result(result)
        assert profile.num_throttles == 0

    def test_intervals_between_detections(self):
        profile = profile_task_result(self._result_with_gaps())
        assert profile.throttle_intervals_s() == [pytest.approx(0.06)]

    def test_obtained_cpu_between_throttles(self):
        profile = profile_task_result(self._result_with_gaps())
        assert profile.obtained_cpu_times_s()[0] == pytest.approx(0.004)

    def test_empty_result(self):
        profile = profile_task_result(TaskResult("t", 0.0, None, 0.0, [], []))
        assert profile.num_throttles == 0
        assert profile.span_s == 0.0

    def test_summary_keys(self):
        summary = profile_task_result(self._result_with_gaps()).summary()
        assert "cpu_share" in summary and "mean_throttle_interval_s" in summary

    def test_profile_from_simulation(self):
        config = SchedulerConfig(
            bandwidth=BandwidthConfig.for_vcpu_fraction(0.25, 0.02), tick_hz=250, horizon_s=1.0
        )
        result = SchedulerSim(config, [SimTask.cpu_bound(10.0, name="spin")]).run().single
        profile = profile_task_result(result)
        assert profile.num_throttles > 5
        intervals_ms = [v * 1e3 for v in profile.throttle_intervals_s()]
        # AWS-like settings: throttle intervals are multiples of the 20 ms period.
        for interval in intervals_ms:
            assert interval % 20 == pytest.approx(0.0, abs=0.5) or (20 - interval % 20) < 0.5

    def test_profile_live_smoke(self):
        profile = profile_live(0.02)
        assert profile.span_s >= 0.02
        assert profile.cpu_obtained_s > 0

    def test_profile_live_invalid_duration(self):
        with pytest.raises(ValueError):
            profile_live(0.0)


class TestThrottleProfileSet:
    def test_aggregation(self):
        a = ThrottleProfile(span_s=1.0, cpu_obtained_s=0.5)
        b = ThrottleProfile(span_s=2.0, cpu_obtained_s=0.7)
        profile_set = ThrottleProfileSet(profiles=[a, b])
        assert profile_set.span_s == pytest.approx(3.0)
        assert profile_set.cpu_obtained_s == pytest.approx(1.2)
        assert profile_set.num_throttles == 0

    def test_diffs_within_invocation_only(self):
        from repro.sched.profiler import ThrottleEvent

        a = ThrottleProfile(
            events=[
                ThrottleEvent(0.01, 0.005),
                ThrottleEvent(0.02, 0.006),
                ThrottleEvent(0.04, 0.012),
            ],
            span_s=0.05,
            cpu_obtained_s=0.02,
        )
        profile_set = ThrottleProfileSet(profiles=[a, ThrottleProfile()])
        diffs = profile_set.obtained_cpu_diffs_s()
        assert len(diffs) == 1  # two obtained values -> one diff; empty profile adds none

    def test_summary_counts_invocations(self):
        profile_set = ThrottleProfileSet(profiles=[ThrottleProfile(), ThrottleProfile()])
        assert profile_set.summary()["num_invocations"] == 2


def test_float_totals_add_left_to_right():
    """1 + 2**-53 + 2**-53 is 1.0 left to right; Python 3.12's compensated sum rounds up."""
    tiny = 2.0**-53
    profiles = [ThrottleProfile(span_s=x, cpu_obtained_s=x) for x in (1.0, tiny, tiny)]
    profile_set = ThrottleProfileSet(profiles=profiles)
    assert profile_set.span_s == profile_set.cpu_obtained_s == 1.0
    segments = [(-1.0, 0.0), (0.0, tiny), (2 * tiny, 3 * tiny)]
    result = TaskResult("t", -1.0, 3 * tiny, 1.0, segments, [])
    assert profile_task_result(result).cpu_obtained_s == 1.0
    assert SimTask(phases=[TaskPhase.compute(x) for x in (1.0, tiny, tiny)]).total_cpu_demand_s == 1.0
    controller = BandwidthController(BandwidthConfig(period_s=0.1, quota_s=0.05), num_cpus=3)
    for pool, throttled_s in zip(controller.local.values(), (1.0, tiny, tiny)):
        pool.throttled_time_s = throttled_s
    assert controller.stats()["throttled_time_s"] == 1.0


class TestPresets:
    def test_table3_values_encoded(self):
        assert PROVIDER_SCHED_PRESETS["aws_lambda"].period_s == pytest.approx(0.020)
        assert PROVIDER_SCHED_PRESETS["aws_lambda"].tick_hz == 250
        assert PROVIDER_SCHED_PRESETS["gcp_run_functions"].period_s == pytest.approx(0.1)
        assert PROVIDER_SCHED_PRESETS["gcp_run_functions"].tick_hz == 1000
        assert PROVIDER_SCHED_PRESETS["ibm_code_engine"].period_s == pytest.approx(0.01)

    def test_scheduler_config_for_provider(self):
        config = scheduler_config_for("aws_lambda", vcpu_fraction=0.25)
        assert config.bandwidth.quota_s == pytest.approx(0.005)
        assert config.tick_hz == 250

    def test_unknown_provider_raises(self):
        with pytest.raises(KeyError):
            scheduler_config_for("unknown_cloud", vcpu_fraction=0.5)
