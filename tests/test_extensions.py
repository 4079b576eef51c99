"""Tests for the extension features built on top of the paper's core results:

- event-driven quota enforcement (§4.3's proposed fix),
- the §5 actionables (platform selection, function merging / decomposition),
- request-based vs instance-based billing break-even,
- the provider-side keep-alive cost model.
"""

import math

import pytest

from repro.billing.calculator import BillingCalculator
from repro.billing.catalog import PlatformName
from repro.billing.instance_billing import break_even_utilization, compare_request_vs_instance_billing
from repro.billing.models import FEE_LABEL
from repro.core.advisor import (
    PlatformSelectionAdvisor,
    evaluate_function_decomposition,
    evaluate_function_merging,
)
from repro.platform.keepalive import KeepAlivePolicy, KeepAliveResourceBehavior
from repro.platform.keepalive_cost import estimate_keepalive_cost, keepalive_policy_comparison
from repro.platform.presets import get_platform_preset
from repro.sched.cgroup import BandwidthConfig
from repro.sched.engine import QuotaEnforcement, SchedulerConfig, SchedulerSim
from repro.sched.task import SimTask
from repro.workloads.functions import MINIMAL_FUNCTION, PYAES_FUNCTION, WorkloadSpec, get_workload


class TestEventDrivenQuotaEnforcement:
    def _duration(self, enforcement, cpu_time=0.016, fraction=0.5, tick_hz=250):
        config = SchedulerConfig(
            bandwidth=BandwidthConfig.for_vcpu_fraction(fraction, 0.020),
            tick_hz=tick_hz,
            horizon_s=5.0,
            quota_enforcement=enforcement,
        )
        return SchedulerSim(config, [SimTask.cpu_bound(cpu_time, name="t")]).run().single

    def test_event_enforcement_matches_equation2(self):
        """§4.3: one-shot-timer enforcement removes the overrun, recovering Equation (2)."""
        from repro.sched.analytical import theoretical_duration

        result = self._duration(QuotaEnforcement.EVENT)
        assert result.duration_s == pytest.approx(theoretical_duration(0.016, 0.020, 0.010), abs=1e-4)

    def test_tick_enforcement_overallocates_relative_to_event(self):
        tick = self._duration(QuotaEnforcement.TICK)
        event = self._duration(QuotaEnforcement.EVENT)
        assert tick.duration_s <= event.duration_s + 1e-9

    def test_event_enforcement_long_task_share_matches_quota(self):
        config = SchedulerConfig(
            bandwidth=BandwidthConfig.for_vcpu_fraction(0.072, 0.020),
            tick_hz=250,
            horizon_s=2.0,
            quota_enforcement=QuotaEnforcement.EVENT,
        )
        result = SchedulerSim(config, [SimTask.cpu_bound(10.0, name="spin")]).run().single
        assert result.cpu_consumed_s / 2.0 == pytest.approx(0.072, rel=0.05)

    def test_event_enforcement_burst_never_exceeds_quota(self):
        config = SchedulerConfig(
            bandwidth=BandwidthConfig.for_vcpu_fraction(0.25, 0.020),
            tick_hz=250,
            horizon_s=1.0,
            quota_enforcement=QuotaEnforcement.EVENT,
        )
        result = SchedulerSim(config, [SimTask.cpu_bound(10.0, name="spin")]).run().single
        for start, end in result.run_segments[:-1]:
            assert end - start <= 0.005 + 1e-6

    def test_event_enforcement_without_bandwidth_limit(self):
        config = SchedulerConfig(
            bandwidth=BandwidthConfig(period_s=0.02, quota_s=0.0),
            tick_hz=250,
            horizon_s=1.0,
            quota_enforcement=QuotaEnforcement.EVENT,
        )
        result = SchedulerSim(config, [SimTask.cpu_bound(0.05, name="t")]).run().single
        assert result.duration_s == pytest.approx(0.05, abs=1e-6)


class TestPlatformSelectionAdvisor:
    @pytest.fixture(scope="class")
    def advisor(self):
        return PlatformSelectionAdvisor()

    def test_rank_returns_all_platforms_sorted(self, advisor):
        rankings = advisor.rank(PYAES_FUNCTION, 1.0, 1.769, requests_per_month=1e6)
        assert len(rankings) == 5
        costs = [r.monthly_cost for r in rankings]
        assert costs == sorted(costs)

    def test_cloudflare_wins_for_io_bound_workloads(self, advisor):
        """Usage-based billing is the cheapest when wall-clock time dwarfs CPU time."""
        rankings = advisor.rank(get_workload("io_bound"), 0.5, 0.5, requests_per_month=1e6)
        assert rankings[0].platform == "cloudflare_workers"

    def test_fee_dominates_for_minimal_functions(self, advisor):
        """§2.5: for tiny functions the invocation fee dominates the bill on every fee-charging platform."""
        rankings = advisor.rank(MINIMAL_FUNCTION, 0.072, 0.125, requests_per_month=1e6)
        for ranking in rankings:
            if ranking.platform != "ibm_code_engine":  # IBM charges no request fee
                assert ranking.invocation_fee_share > 0.4

    def test_monthly_cost_scales_with_volume(self, advisor):
        low = advisor.rank(PYAES_FUNCTION, 1.0, 1.769, requests_per_month=1e5)
        high = advisor.rank(PYAES_FUNCTION, 1.0, 1.769, requests_per_month=1e7)
        assert high[0].monthly_cost > low[0].monthly_cost * 50

    def test_rank_for_trace(self, advisor, small_trace):
        rankings = advisor.rank_for_trace(small_trace)
        assert len(rankings) == 5
        assert all(r.cost_per_invocation > 0 for r in rankings)
        # Usage-based billing bills the least for the low-utilisation trace.
        assert rankings[0].platform == "cloudflare_workers"

    def test_rank_for_trace_matches_per_record_invoices(self, advisor, small_trace):
        """The metered totals equal left-to-right sums of per-record invoices, bit for bit."""
        requests = small_trace.exclude_zero_cpu().requests
        for ranking in advisor.rank_for_trace(small_trace):
            calculator = BillingCalculator(ranking.platform)
            total = fee = 0.0
            for record in requests:
                invoice = calculator.bill_request(record).invoice
                total += invoice.total
                fee += invoice.charge_for(FEE_LABEL)
            assert ranking.cost_per_invocation == total / len(requests)
            assert ranking.invocation_fee_share == fee / total

    def test_rank_for_trace_rejects_instance_billed_platforms(self, small_trace):
        advisor = PlatformSelectionAdvisor({PlatformName.GCP_RUN_INSTANCE: {"serving": None, "sched": None}})
        with pytest.raises(ValueError, match="instance"):
            advisor.rank_for_trace(small_trace)

    def test_rank_for_empty_trace_rejected(self, advisor):
        from repro.traces.schema import Trace

        with pytest.raises(ValueError):
            advisor.rank_for_trace(Trace([]))

    def test_invalid_volume_rejected(self, advisor):
        with pytest.raises(ValueError):
            advisor.rank(PYAES_FUNCTION, 1.0, 1.0, requests_per_month=-1)

    def test_as_row_keys(self, advisor):
        row = advisor.rank(PYAES_FUNCTION, 1.0, 1.769, requests_per_month=1e6)[0].as_row()
        assert {"platform", "monthly_cost", "execution_duration_ms"} <= set(row)


class TestFunctionMergingAndDecomposition:
    def test_merging_short_functions_saves_fees(self):
        """§5: merging similar functions lowers invocation fees (and cutoff waste)."""
        short = WorkloadSpec(name="short", cpu_time_s=0.01, used_memory_gb=0.05)
        recommendation = evaluate_function_merging([short] * 5, 0.25, 0.5)
        assert recommendation.worthwhile
        assert recommendation.separate_cost > recommendation.merged_cost

    def test_merging_single_function_is_neutral(self):
        recommendation = evaluate_function_merging([PYAES_FUNCTION], 1.0, 1.769)
        assert recommendation.saving == pytest.approx(0.0, abs=1e-9)

    def test_merging_requires_workloads(self):
        with pytest.raises(ValueError):
            evaluate_function_merging([], 1.0, 1.0)

    def test_decomposition_right_sizes_stages(self):
        """Decomposing lets the IO-dominated stage run at a small allocation instead of
        holding the CPU-heavy stage's large (memory-proportional) allocation for the
        whole wall-clock duration."""
        pipeline = WorkloadSpec(name="pipeline", cpu_time_s=0.2, io_time_s=2.0, used_memory_gb=0.1)
        recommendation = evaluate_function_decomposition(
            pipeline,
            piece_allocations_vcpus=[0.125, 1.0],
            piece_cpu_fractions=[0.9, 0.1],
            alloc_memory_gb=1.769,
            monolithic_vcpus=1.0,
            billing_platform=PlatformName.AWS_LAMBDA,
            scheduling_provider=None,
        )
        assert recommendation.num_pieces == 2
        assert recommendation.worthwhile
        assert recommendation.saving > 0.3

    def test_decomposition_not_worthwhile_for_pure_cpu_on_decoupled_billing(self):
        """With decoupled CPU billing (GCP) a pure-CPU pipeline bills the same vCPU-seconds
        regardless of how it is split, so the extra invocation fees make decomposition lose."""
        pipeline = WorkloadSpec(name="pipeline", cpu_time_s=1.0, used_memory_gb=0.1)
        recommendation = evaluate_function_decomposition(
            pipeline,
            piece_allocations_vcpus=[1.0, 0.25],
            piece_cpu_fractions=[0.2, 0.8],
            alloc_memory_gb=0.5,
            monolithic_vcpus=1.0,
            billing_platform=PlatformName.GCP_RUN_REQUEST,
            scheduling_provider=None,
        )
        assert not recommendation.worthwhile

    def test_decomposition_validation(self):
        with pytest.raises(ValueError):
            evaluate_function_decomposition(
                PYAES_FUNCTION, [1.0], [0.5, 0.5], alloc_memory_gb=1.0
            )
        with pytest.raises(ValueError):
            evaluate_function_decomposition(
                PYAES_FUNCTION, [1.0, 0.5], [0.6, 0.6], alloc_memory_gb=1.0
            )


class TestInstanceBilling:
    def test_low_traffic_favours_request_billing(self):
        comparison = compare_request_vs_instance_billing(
            requests_per_hour=10, mean_execution_s=0.2, alloc_vcpus=1.0, alloc_memory_gb=2.0
        )
        assert not comparison.instance_billing_cheaper
        assert comparison.instance_utilization < 0.01

    def test_high_traffic_favours_instance_billing(self):
        comparison = compare_request_vs_instance_billing(
            requests_per_hour=15_000, mean_execution_s=0.2, alloc_vcpus=1.0, alloc_memory_gb=2.0
        )
        assert comparison.instance_billing_cheaper
        assert comparison.instance_utilization > 0.5

    def test_break_even_utilization_in_unit_interval(self):
        utilization = break_even_utilization(0.2, 1.0, 2.0)
        assert 0.0 < utilization <= 1.0

    def test_break_even_consistent_with_comparison(self):
        utilization = break_even_utilization(0.2, 1.0, 2.0)
        rate_above = (utilization * 1.05) * 3600.0 / 0.2
        comparison = compare_request_vs_instance_billing(
            requests_per_hour=rate_above, mean_execution_s=0.2, alloc_vcpus=1.0, alloc_memory_gb=2.0
        )
        assert comparison.instance_billing_cheaper

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            compare_request_vs_instance_billing(-1, 0.2, 1.0, 2.0)
        with pytest.raises(ValueError):
            break_even_utilization(0.0, 1.0, 2.0)

    def test_as_row(self):
        row = compare_request_vs_instance_billing(100, 0.2, 1.0, 2.0).as_row()
        assert "instance_billing_cheaper" in row


class TestKeepAliveCost:
    def _policies(self):
        return {
            "aws_like": get_platform_preset("aws_lambda_like").keep_alive,
            "azure_like": get_platform_preset("azure_consumption_like").keep_alive,
            "gcp_like": get_platform_preset("gcp_run_like").keep_alive,
        }

    def test_freeze_policy_has_zero_idle_cost(self):
        estimate = estimate_keepalive_cost(
            self._policies()["aws_like"], [60.0, 120.0], 1.0, 2.0, policy_label="aws"
        )
        assert estimate.idle_vcpu_seconds_per_request == 0.0
        assert estimate.implied_cost_per_request == 0.0

    def test_full_allocation_policy_costs_most(self):
        comparison = keepalive_policy_comparison(self._policies(), [60.0, 180.0, 300.0], 1.0, 2.0)
        assert (
            comparison["azure_like"].implied_cost_per_request
            > comparison["gcp_like"].implied_cost_per_request
            >= comparison["aws_like"].implied_cost_per_request
        )

    def test_longer_gaps_increase_idle_and_cold_starts(self):
        policy = self._policies()["azure_like"]
        short = estimate_keepalive_cost(policy, [30.0] * 10, 1.0, 1.0)
        long = estimate_keepalive_cost(policy, [500.0] * 10, 1.0, 1.0)
        assert long.mean_idle_s_per_request > short.mean_idle_s_per_request
        assert long.cold_start_probability > short.cold_start_probability

    def test_cold_start_probability_trade_off(self):
        """The policy that holds the most resources (Azure-like full allocation) buys fewer
        cold starts per idle-second held than freezing at the same gap distribution only by
        keeping everything resident -- the §3.3 trade-off."""
        comparison = keepalive_policy_comparison(self._policies(), [200.0] * 5, 1.0, 1.0)
        assert comparison["aws_like"].cold_start_probability <= 1.0
        assert comparison["gcp_like"].cold_start_probability == 0.0  # 200 s < GCP's window

    def test_validation(self):
        policy = KeepAlivePolicy(10.0, 20.0, KeepAliveResourceBehavior.FREEZE_DEALLOCATE)
        with pytest.raises(ValueError):
            estimate_keepalive_cost(policy, [], 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_keepalive_cost(policy, [10.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            estimate_keepalive_cost(policy, [-5.0], 1.0, 1.0)
