"""End-to-end integration tests spanning multiple substrates."""

import pytest

from repro.billing.catalog import PlatformName
from repro.billing.inflation import InflationAnalyzer
from repro.core.cost_model import CostModel
from repro.core.decomposition import decompose_invocation_cost
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.workloads.functions import PYAES_FUNCTION
from repro.workloads.traffic import poisson_arrivals


class TestTraceToBillPipeline:
    """Generate a trace, bill it under every Figure 2 model, and check consistency."""

    @pytest.fixture(scope="class")
    def trace(self):
        return TraceGenerator(TraceGeneratorConfig(num_requests=1_500, num_functions=30, seed=11)).generate()

    def test_total_billable_exceeds_total_actual(self, trace):
        results = InflationAnalyzer().analyze(trace)
        for platform, result in results.items():
            if sum(result.billable_cpu_seconds) > 0:
                assert sum(result.billable_cpu_seconds) >= sum(result.actual_cpu_seconds)

    def test_request_level_and_aggregate_views_consistent(self, trace):
        results = InflationAnalyzer([PlatformName.AWS_LAMBDA]).analyze(trace)
        result = results[PlatformName.AWS_LAMBDA]
        aggregate = sum(result.billable_memory_gb_seconds) / sum(result.actual_memory_gb_seconds)
        assert aggregate == pytest.approx(result.aggregate_memory_inflation)


class TestSimulationToBillPipeline:
    """Run the platform simulator and feed its per-request outcomes into the billing model."""

    def test_contention_increases_billed_cost_per_request(self):
        """I6: the dual penalty -- slower execution AND a larger bill per request."""
        preset = get_platform_preset("gcp_run_like")
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=1.5)
        calculator_model = CostModel(PlatformName.GCP_RUN_REQUEST)

        def mean_cost(rps):
            metrics = PlatformSimulator(preset, function, seed=9).run(poisson_arrivals(rps, 60.0, seed=2))
            from repro.billing.calculator import BillingCalculator, InvocationBillingInput

            calculator = BillingCalculator(PlatformName.GCP_RUN_REQUEST)
            costs = []
            for outcome in metrics.requests:
                inputs = InvocationBillingInput(
                    execution_s=outcome.execution_duration_s,
                    init_s=outcome.init_duration_s,
                    alloc_vcpus=1.0,
                    alloc_memory_gb=2.0,
                    used_cpu_seconds=PYAES_FUNCTION.cpu_time_s,
                    used_memory_gb=PYAES_FUNCTION.used_memory_gb,
                )
                costs.append(calculator.bill(inputs).invoice.total)
            return sum(costs) / len(costs)

        assert mean_cost(20) > mean_cost(1)
        # Sanity: the analytic cost model agrees on the uncontended cost scale.
        baseline = calculator_model.invocation_cost(PYAES_FUNCTION, 1.0, 2.0).cost_per_invocation
        assert mean_cost(1) == pytest.approx(baseline, rel=0.5)


class TestCostModelCrossChecks:
    def test_decomposition_consistent_across_platforms(self):
        for platform in (PlatformName.AWS_LAMBDA, PlatformName.GCP_RUN_REQUEST, PlatformName.AZURE_CONSUMPTION):
            decomposition = decompose_invocation_cost(
                PYAES_FUNCTION, 0.5, 1.0, platform, scheduling_provider=None
            )
            model = CostModel(platform)
            report = model.invocation_cost(PYAES_FUNCTION, 0.5, 1.0)
            assert decomposition.total == pytest.approx(report.cost_per_invocation, rel=1e-9)

    def test_decomposition_rejects_instance_billing(self):
        """Instance-billed platforms have no per-invocation billable time to decompose."""
        with pytest.raises(ValueError, match="instance_s is required"):
            decompose_invocation_cost(PYAES_FUNCTION, 0.5, 1.0, PlatformName.GCP_RUN_INSTANCE)

    def test_serverless_more_expensive_than_ideal_usage(self):
        """§1/§2: the full bill is a multiple of the perfect pay-per-use baseline."""
        decomposition = decompose_invocation_cost(
            PYAES_FUNCTION, 0.5, 1.0, PlatformName.GCP_RUN_REQUEST, scheduling_provider="gcp_run_functions"
        )
        assert decomposition.total > 1.3 * decomposition.usage_baseline

    def test_instance_billing_platform_cost_model(self):
        """Instance-billed platforms produce a bill without an invocation fee."""
        from repro.billing.calculator import BillingCalculator, InvocationBillingInput

        calculator = BillingCalculator(PlatformName.GCP_RUN_INSTANCE)
        billed = calculator.bill(
            InvocationBillingInput(
                execution_s=0.1,
                init_s=0.0,
                alloc_vcpus=1.0,
                alloc_memory_gb=2.0,
                used_cpu_seconds=0.05,
                used_memory_gb=0.5,
                instance_s=600.0,
            )
        )
        assert billed.invoice.charge_for("invocation_fee") == 0.0
        assert billed.billable_memory_gb_seconds == pytest.approx(2.0 * 600.0)
