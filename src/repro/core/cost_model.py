"""End-to-end cost model: from a workload and platform choice to a monthly bill.

This is the user-facing entry point of the reproduction: given a workload
(CPU / IO / memory footprint), a resource allocation, a billing model and a
serving platform, compute the per-invocation and per-month cost with the
effects of every layer applied:

1. the serving architecture adds per-request overhead to the billable duration,
2. the concurrency model may stretch execution under load (contention),
3. OS scheduling quantization changes the wall-clock duration of CPU-bound
   work at fractional allocations,
4. the billing model rounds the resulting duration and resources and adds the
   invocation fee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.billing.calculator import BillingCalculator, InvocationBillingInput
from repro.billing.catalog import PlatformName
from repro.billing.models import FEE_LABEL
from repro.platform.config import PlatformConfig
from repro.sched.analytical import theoretical_duration
from repro.sched.presets import PROVIDER_SCHED_PRESETS
from repro.workloads.functions import WorkloadSpec

__all__ = ["CostModel", "WorkloadCostReport"]


@dataclass(frozen=True)
class WorkloadCostReport:
    """The cost of running a workload at a given request volume."""

    platform: str
    alloc_vcpus: float
    alloc_memory_gb: float
    execution_duration_s: float
    billable_cpu_seconds_per_request: float
    billable_memory_gb_seconds_per_request: float
    cost_per_invocation: float
    cost_per_million_invocations: float
    invocation_fee_share: float
    breakdown: Dict[str, float]

    def monthly_cost(self, requests_per_month: float) -> float:
        """Total monthly cost at the given request volume."""
        if requests_per_month < 0:
            raise ValueError("requests_per_month must be >= 0")
        return self.cost_per_invocation * requests_per_month


class CostModel:
    """Computes workload costs with serving and scheduling effects applied."""

    def __init__(
        self,
        billing_platform: "PlatformName | str",
        serving_platform: Optional[PlatformConfig] = None,
        scheduling_provider: Optional[str] = None,
    ) -> None:
        """Create a cost model.

        Args:
            billing_platform: which Table 1 billing model to apply.
            serving_platform: optional §3 serving preset; when given, its
                serving-architecture overhead is added to each request.
            scheduling_provider: optional §4 provider key (``aws_lambda``,
                ``gcp_run_functions``, ``ibm_code_engine``); when given, the
                execution duration of CPU-bound work is computed with the
                provider's bandwidth-control period via Equation (2) rather
                than ideal reciprocal scaling.
        """
        self.calculator = BillingCalculator(billing_platform)
        self.serving_platform = serving_platform
        if scheduling_provider is not None and scheduling_provider not in PROVIDER_SCHED_PRESETS:
            raise KeyError(
                f"unknown scheduling provider {scheduling_provider!r}; "
                f"valid: {sorted(PROVIDER_SCHED_PRESETS)}"
            )
        self.scheduling_provider = scheduling_provider

    # ------------------------------------------------------------------
    # Duration modelling
    # ------------------------------------------------------------------

    def execution_duration_s(
        self,
        workload: WorkloadSpec,
        alloc_vcpus: float,
        concurrent_requests: int = 1,
    ) -> float:
        """Wall-clock execution duration of one request with all layers applied."""
        if alloc_vcpus <= 0:
            raise ValueError("alloc_vcpus must be positive")
        if concurrent_requests < 1:
            raise ValueError("concurrent_requests must be >= 1")
        cpu_time = workload.cpu_time_s
        # Layer 3: OS scheduling.  CPU-bound time under a fractional allocation
        # follows Equation (2) with the provider's bandwidth-control period;
        # without a provider we assume ideal reciprocal scaling.
        if self.scheduling_provider is not None and alloc_vcpus < 1.0:
            period = PROVIDER_SCHED_PRESETS[self.scheduling_provider].period_s
            compute_duration = theoretical_duration(cpu_time, period, alloc_vcpus * period)
        else:
            compute_duration = cpu_time / min(alloc_vcpus, 1.0)
        # Layer 2: contention from the concurrency model.
        if self.serving_platform is not None and concurrent_requests > 1:
            slowdown = self.serving_platform.contention.slowdown(concurrent_requests, alloc_vcpus)
            compute_duration *= slowdown
        duration = compute_duration + workload.io_time_s
        # Layer 2: serving-architecture overhead.
        if self.serving_platform is not None:
            duration += self.serving_platform.serving.mean_overhead_s(alloc_vcpus)
        return duration

    # ------------------------------------------------------------------
    # Billing
    # ------------------------------------------------------------------

    def invocation_cost(
        self,
        workload: WorkloadSpec,
        alloc_vcpus: float,
        alloc_memory_gb: float,
        concurrent_requests: int = 1,
        cold_start: bool = False,
        init_duration_s: float = 0.0,
    ) -> WorkloadCostReport:
        """Bill one invocation of the workload on this model's platform."""
        if alloc_memory_gb <= 0:
            raise ValueError("alloc_memory_gb must be positive")
        duration = self.execution_duration_s(workload, alloc_vcpus, concurrent_requests)
        inputs = InvocationBillingInput(
            execution_s=duration,
            init_s=init_duration_s if cold_start else 0.0,
            alloc_vcpus=alloc_vcpus,
            alloc_memory_gb=alloc_memory_gb,
            used_cpu_seconds=workload.cpu_time_s,
            used_memory_gb=workload.used_memory_gb,
        )
        billed = self.calculator.bill(inputs)
        total = billed.invoice.total
        fee = billed.invoice.charge_for(FEE_LABEL)
        return WorkloadCostReport(
            platform=self.calculator.model.platform,
            alloc_vcpus=alloc_vcpus,
            alloc_memory_gb=alloc_memory_gb,
            execution_duration_s=duration,
            billable_cpu_seconds_per_request=billed.billable_cpu_seconds,
            billable_memory_gb_seconds_per_request=billed.billable_memory_gb_seconds,
            cost_per_invocation=total,
            cost_per_million_invocations=total * 1e6,
            invocation_fee_share=(fee / total) if total > 0 else 0.0,
            breakdown=billed.invoice.as_dict(),
        )
