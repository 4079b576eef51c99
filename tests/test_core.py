"""Tests for the core cost framework: cost model, decomposition, exploits, right-sizing, report."""

import pytest

from repro.billing.catalog import PlatformName
from repro.core.cost_model import CostModel
from repro.core.decomposition import decompose_invocation_cost
from repro.core.exploit import evaluate_intermittent_execution, evaluate_keepalive_background_task
from repro.core.report import format_value, render_table, to_markdown_table
from repro.core.rightsizing import RightsizingAdvisor
from repro.platform.presets import get_platform_preset
from repro.workloads.functions import PYAES_FUNCTION, VIDEO_PROCESSING_FUNCTION, get_workload


class TestCostModel:
    def test_full_allocation_duration_is_cpu_time(self):
        model = CostModel(PlatformName.AWS_LAMBDA)
        assert model.execution_duration_s(PYAES_FUNCTION, 1.0) == pytest.approx(0.160)

    def test_fractional_allocation_without_scheduler_is_reciprocal(self):
        model = CostModel(PlatformName.AWS_LAMBDA)
        assert model.execution_duration_s(PYAES_FUNCTION, 0.5) == pytest.approx(0.320)

    def test_scheduling_provider_changes_duration(self):
        plain = CostModel(PlatformName.AWS_LAMBDA)
        scheduled = CostModel(PlatformName.AWS_LAMBDA, scheduling_provider="aws_lambda")
        assert scheduled.execution_duration_s(PYAES_FUNCTION, 0.3) != pytest.approx(
            plain.execution_duration_s(PYAES_FUNCTION, 0.3)
        )

    def test_serving_platform_adds_overhead(self):
        gcp = get_platform_preset("gcp_run_like")
        with_serving = CostModel(PlatformName.GCP_RUN_REQUEST, serving_platform=gcp)
        without = CostModel(PlatformName.GCP_RUN_REQUEST)
        assert with_serving.execution_duration_s(PYAES_FUNCTION, 1.0) > without.execution_duration_s(
            PYAES_FUNCTION, 1.0
        )

    def test_concurrency_slowdown_applied(self):
        gcp = get_platform_preset("gcp_run_like")
        model = CostModel(PlatformName.GCP_RUN_REQUEST, serving_platform=gcp)
        assert model.execution_duration_s(PYAES_FUNCTION, 1.0, concurrent_requests=4) > 3 * (
            model.execution_duration_s(PYAES_FUNCTION, 1.0)
        )

    def test_invocation_cost_report_fields(self):
        model = CostModel(PlatformName.AWS_LAMBDA)
        report = model.invocation_cost(PYAES_FUNCTION, 1.0, 1.769)
        assert report.cost_per_invocation > 0
        assert report.cost_per_million_invocations == pytest.approx(report.cost_per_invocation * 1e6)
        assert 0 < report.invocation_fee_share < 1
        assert report.monthly_cost(1e6) == pytest.approx(report.cost_per_million_invocations)

    def test_invalid_scheduling_provider(self):
        with pytest.raises(KeyError):
            CostModel(PlatformName.AWS_LAMBDA, scheduling_provider="unknown")

    def test_invalid_arguments(self):
        model = CostModel(PlatformName.AWS_LAMBDA)
        with pytest.raises(ValueError):
            model.execution_duration_s(PYAES_FUNCTION, 0.0)
        with pytest.raises(ValueError):
            model.execution_duration_s(PYAES_FUNCTION, 1.0, concurrent_requests=0)
        with pytest.raises(ValueError):
            model.invocation_cost(PYAES_FUNCTION, 1.0, 1.0).monthly_cost(-1)

    @pytest.mark.parametrize("memory_gb", [0.0, -1.0])
    def test_invocation_cost_rejects_non_positive_memory(self, memory_gb):
        model = CostModel(PlatformName.GCP_RUN_REQUEST)
        with pytest.raises(ValueError, match="alloc_memory_gb must be positive"):
            model.invocation_cost(PYAES_FUNCTION, 1.0, memory_gb)


class TestDecomposition:
    @pytest.fixture(scope="class")
    def decomposition(self):
        return decompose_invocation_cost(
            PYAES_FUNCTION,
            alloc_vcpus=0.5,
            alloc_memory_gb=1.0,
            billing_platform=PlatformName.GCP_RUN_REQUEST,
            serving_platform=get_platform_preset("gcp_run_like"),
            scheduling_provider="gcp_run_functions",
        )

    def test_total_matches_full_bill(self, decomposition):
        model = CostModel(
            PlatformName.GCP_RUN_REQUEST,
            serving_platform=get_platform_preset("gcp_run_like"),
            scheduling_provider="gcp_run_functions",
        )
        report = model.invocation_cost(PYAES_FUNCTION, 0.5, 1.0)
        assert decomposition.total == pytest.approx(report.cost_per_invocation, rel=1e-9)

    def test_shares_sum_to_one(self, decomposition):
        assert sum(decomposition.shares().values()) == pytest.approx(1.0)

    def test_usage_baseline_positive(self, decomposition):
        assert decomposition.usage_baseline > 0

    def test_allocation_inflation_positive_for_low_utilization(self, decomposition):
        assert decomposition.allocation_inflation > 0

    def test_invocation_fee_matches_catalog(self, decomposition):
        assert decomposition.invocation_fee == pytest.approx(4e-7)

    def test_ranked_drivers_excludes_baseline(self, decomposition):
        drivers = decomposition.ranked_drivers()
        assert "usage_baseline" not in drivers
        assert len(drivers) == 5

    def test_rejects_zero_vcpus(self):
        with pytest.raises(ValueError, match="alloc_vcpus must be positive"):
            decompose_invocation_cost(PYAES_FUNCTION, 0.0, 1.0, PlatformName.GCP_RUN_REQUEST)

    def test_rejects_negative_memory(self):
        with pytest.raises(ValueError, match="alloc_memory_gb must be positive"):
            decompose_invocation_cost(PYAES_FUNCTION, 0.5, -1.0, PlatformName.GCP_RUN_REQUEST)


class TestExploits:
    def test_intermittent_execution_reduces_gb_seconds(self):
        """§4.3: the exploit cuts billable GB-seconds substantially (paper: ~66.7%)."""
        plan = evaluate_intermittent_execution(VIDEO_PROCESSING_FUNCTION, 0.25, 0.5)
        assert plan.billable_gb_seconds_reduction > 0.4

    def test_intermittent_execution_raises_actual_bill(self):
        """§4.3: invocation fees make the exploit more expensive overall (paper: +76.7%)."""
        plan = evaluate_intermittent_execution(VIDEO_PROCESSING_FUNCTION, 0.25, 0.5)
        assert plan.cost_change > 0

    def test_bursts_fit_within_quota(self):
        plan = evaluate_intermittent_execution(VIDEO_PROCESSING_FUNCTION, 0.25, 0.5)
        quota = 0.25 * 0.020
        assert plan.burst_cpu_s <= quota + 1e-9

    def test_full_core_no_duration_benefit(self):
        plan = evaluate_intermittent_execution(VIDEO_PROCESSING_FUNCTION, 1.0, 2.0)
        assert plan.monolithic_duration_s <= plan.intermittent_total_duration_s + 1e-6

    def test_explicit_burst_count(self):
        plan = evaluate_intermittent_execution(VIDEO_PROCESSING_FUNCTION, 0.25, 0.5, num_bursts=10)
        assert plan.num_bursts == 10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            evaluate_intermittent_execution(VIDEO_PROCESSING_FUNCTION, 0.0, 0.5)
        with pytest.raises(ValueError):
            evaluate_intermittent_execution(VIDEO_PROCESSING_FUNCTION, 0.25, 0.5, num_bursts=0)

    def test_summary_keys(self):
        plan = evaluate_intermittent_execution(VIDEO_PROCESSING_FUNCTION, 0.25, 0.5)
        assert {"billable_gb_seconds_reduction", "cost_change", "num_bursts"} <= set(plan.summary())

    def test_keepalive_background_task_cheaper(self):
        """§3.3: pushing work into keep-alive on Azure bills only the brief trigger requests."""
        plan = evaluate_keepalive_background_task(get_workload("video_processing"))
        assert plan.cost_reduction > 0.5
        assert plan.billed_requests == 2


class TestRightsizing:
    def test_best_candidate_meets_latency(self):
        advisor = RightsizingAdvisor(PlatformName.AWS_LAMBDA, scheduling_provider="aws_lambda")
        recommendation = advisor.evaluate(PYAES_FUNCTION, [0.1, 0.25, 0.5, 1.0], latency_target_s=0.5)
        assert recommendation.feasible
        assert recommendation.best.execution_duration_s <= 0.5

    def test_infeasible_target(self):
        advisor = RightsizingAdvisor(PlatformName.AWS_LAMBDA)
        recommendation = advisor.evaluate(PYAES_FUNCTION, [0.1], latency_target_s=0.01)
        assert not recommendation.feasible

    def test_no_target_picks_cheapest(self):
        advisor = RightsizingAdvisor(PlatformName.AWS_LAMBDA, scheduling_provider="aws_lambda")
        recommendation = advisor.evaluate(PYAES_FUNCTION, [0.25, 0.5, 1.0])
        costs = [c.cost_per_invocation for c in recommendation.candidates]
        assert recommendation.best.cost_per_invocation == pytest.approx(min(costs))

    def test_jitter_risk_higher_near_jump(self):
        advisor = RightsizingAdvisor(PlatformName.AWS_LAMBDA, scheduling_provider="aws_lambda")
        workload = get_workload("pyaes_short")
        near_jump = advisor.jitter_risk(workload, 0.8)
        far_from_jump = advisor.jitter_risk(workload, 0.6)
        assert near_jump >= far_from_jump

    def test_invalid_inputs(self):
        advisor = RightsizingAdvisor(PlatformName.AWS_LAMBDA)
        with pytest.raises(ValueError):
            advisor.evaluate(PYAES_FUNCTION, [])
        with pytest.raises(ValueError):
            advisor.evaluate(PYAES_FUNCTION, [0.0])
        with pytest.raises(ValueError):
            advisor.jitter_risk(PYAES_FUNCTION, 0.0)


class TestReport:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "longer"}]
        text = render_table(rows, title="T")
        assert text.splitlines()[0] == "T"
        assert "longer" in text

    def test_render_empty(self):
        assert "(no rows)" in render_table([])

    def test_markdown_table(self):
        markdown = to_markdown_table([{"a": 1.23456, "b": True}])
        assert markdown.startswith("| a | b |")
        assert "| 1.235 | yes |" in markdown

    def test_format_value_nan_and_small(self):
        assert format_value(float("nan")) == "nan"
        assert "e" in format_value(1.5e-7)
        assert format_value(0.0) == "0"

    def test_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]
