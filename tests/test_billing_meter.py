"""Tests for the live cost meter and its equivalence with the batch calculator."""

import pytest

from repro.billing.calculator import BillingCalculator, InvocationBillingInput
from repro.billing.catalog import PlatformName
from repro.billing.meter import CostMeter, RequestResources, replay_trace
from repro.sim.events import (
    EventBus,
    RequestCompleted,
    SandboxBusy,
    SandboxColdStart,
    SandboxIdle,
    SandboxTerminated,
)

#: The five request-billed platform models the paper's §2.3 methodology maps
#: trace records onto (Table 1); instance-billed models are metered separately.
REQUEST_BILLED_PLATFORMS = (
    PlatformName.AWS_LAMBDA,
    PlatformName.GCP_RUN_REQUEST,
    PlatformName.AZURE_CONSUMPTION,
    PlatformName.HUAWEI_FUNCTIONGRAPH,
    PlatformName.CLOUDFLARE_WORKERS,
)


class TestLiveBatchEquivalence:
    """Acceptance criterion: live metering == batch calculation, exactly."""

    @pytest.mark.parametrize("platform", REQUEST_BILLED_PLATFORMS)
    def test_live_meter_matches_batch_calculator_exactly(self, small_trace, platform):
        bus = EventBus()
        meter = CostMeter(platform).attach(bus)
        ordered = replay_trace(small_trace, bus)
        assert len(ordered) == len(small_trace.requests)

        calculator = BillingCalculator(platform)
        batch_cost = 0.0
        batch_cpu = 0.0
        batch_memory = 0.0
        batch_fees = 0.0
        for record in ordered:
            billed = calculator.bill_request(record)
            batch_cost += billed.invoice.total
            batch_cpu += billed.billable_cpu_seconds
            batch_memory += billed.billable_memory_gb_seconds
            batch_fees += billed.invoice.charge_for("invocation_fee")

        # Exact equality, not approx: the meter routes every record through
        # the same BillingCalculator in the same order.
        assert meter.cost_usd == batch_cost
        assert meter.billable_cpu_seconds == batch_cpu
        assert meter.billable_memory_gb_seconds == batch_memory
        assert meter.invocation_fee_usd == batch_fees
        assert meter.num_requests == len(small_trace.requests)

    def test_cold_starts_counted(self, small_trace):
        bus = EventBus()
        meter = CostMeter(PlatformName.AWS_LAMBDA).attach(bus)
        replay_trace(small_trace, bus)
        expected = sum(1 for r in small_trace.requests if r.cold_start)
        assert meter.num_cold_starts == expected


class TestInstanceMetering:
    def _lifecycle(self, bus):
        bus.publish(SandboxColdStart(0.0, "sb-0", "f", alloc_vcpus=1.0, alloc_memory_gb=2.0))
        bus.publish(SandboxBusy(1.0, "sb-0", 1))
        bus.publish(SandboxIdle(5.0, "sb-0"))
        bus.publish(SandboxBusy(8.0, "sb-0", 1))
        bus.publish(SandboxIdle(9.0, "sb-0"))
        bus.publish(SandboxTerminated(20.0, "sb-0"))

    def test_lifespans_and_idle_time(self):
        bus = EventBus()
        meter = CostMeter(PlatformName.AWS_LAMBDA).attach(bus)
        self._lifecycle(bus)
        assert meter.instances_started == 1
        assert meter.instances_closed == 1
        assert meter.instance_seconds == pytest.approx(20.0)
        # Idle 5->8 plus 9->20 (terminated while idle).
        assert meter.idle_instance_seconds == pytest.approx(3.0 + 11.0)
        assert meter.allocated_vcpu_seconds == pytest.approx(20.0)
        assert meter.allocated_memory_gb_seconds == pytest.approx(40.0)

    def test_instance_billed_model_invoices_lifespans(self):
        bus = EventBus()
        meter = CostMeter(PlatformName.GCP_RUN_INSTANCE).attach(bus)
        self._lifecycle(bus)
        from repro.billing.catalog import get_billing_model
        from repro.billing.units import ResourceKind

        model = get_billing_model(PlatformName.GCP_RUN_INSTANCE)
        expected = model.invoice(
            execution_s=0.0,
            allocations={ResourceKind.CPU: 1.0, ResourceKind.MEMORY: 2.0},
            usages={},
            instance_s=20.0,
            include_invocation_fee=False,
        ).total
        assert meter.cost_usd == pytest.approx(expected)
        assert meter.billable_cpu_seconds == pytest.approx(20.0)

    def test_instance_billed_model_ignores_request_invoicing(self, small_trace):
        bus = EventBus()
        meter = CostMeter(PlatformName.GCP_RUN_INSTANCE).attach(bus)
        replay_trace(small_trace, bus)
        # Requests are counted for rate statistics but not billed.
        assert meter.num_requests == len(small_trace.requests)
        assert meter.cost_usd == 0.0

    def test_finalize_closes_open_instances(self):
        bus = EventBus()
        meter = CostMeter(PlatformName.AZURE_PREMIUM).attach(bus)
        bus.publish(SandboxColdStart(0.0, "sb-0", "f", alloc_vcpus=1.0, alloc_memory_gb=3.5))
        bus.publish(SandboxColdStart(2.0, "sb-1", "f", alloc_vcpus=1.0, alloc_memory_gb=3.5))
        meter.finalize(10.0)
        assert meter.instances_closed == 2
        assert meter.instance_seconds == pytest.approx(10.0 + 8.0)
        assert meter.cost_usd > 0.0


class TestMeterErrors:
    def test_simulator_outcome_without_resources_rejected(self):
        meter = CostMeter(PlatformName.AWS_LAMBDA)

        class Outcome:
            execution_duration_s = 0.1
            init_duration_s = 0.0
            cold_start = False

        with pytest.raises(ValueError):
            meter.meter_outcome(Outcome(), resources=None)

    def test_unmeterable_outcome_rejected(self):
        meter = CostMeter(PlatformName.AWS_LAMBDA)
        with pytest.raises(TypeError):
            meter.meter_outcome(object())

    def test_instance_billed_meter_also_rejects_unmeterable_outcome(self):
        meter = CostMeter(PlatformName.GCP_RUN_INSTANCE)
        with pytest.raises(TypeError):
            meter.meter_outcome(object())

    def test_invalid_resources_rejected(self):
        with pytest.raises(ValueError):
            RequestResources(alloc_vcpus=0.0, alloc_memory_gb=1.0, used_cpu_seconds=0.0, used_memory_gb=0.0)

    def test_simulator_outcome_with_resources(self):
        meter = CostMeter(PlatformName.GCP_RUN_REQUEST)
        bus = EventBus()
        resources = RequestResources(
            alloc_vcpus=1.0, alloc_memory_gb=2.0, used_cpu_seconds=0.1, used_memory_gb=0.09
        )
        meter.attach(bus, resources)

        class Outcome:
            execution_duration_s = 0.2
            init_duration_s = 1.0
            cold_start = True

        bus.publish(RequestCompleted(1.2, Outcome()))
        expected = BillingCalculator(PlatformName.GCP_RUN_REQUEST).bill(
            InvocationBillingInput(
                execution_s=0.2,
                init_s=1.0,
                alloc_vcpus=1.0,
                alloc_memory_gb=2.0,
                used_cpu_seconds=0.1,
                used_memory_gb=0.09,
            )
        )
        assert meter.cost_usd == expected.invoice.total
        assert meter.num_cold_starts == 1
