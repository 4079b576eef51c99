"""Per-layer cost decomposition: where does each dollar of an invocation go?

The paper deliberately avoids one universal numeric breakdown (§5) because the
relative contribution of each layer depends on the workload and configuration.
Instead it gives practitioners a way to *measure and rank* cost drivers within
their own context.  This module implements that measurement: for one
invocation it computes the incremental cost added by each layer relative to an
ideal usage-based baseline:

1. **actual usage** -- what a perfect pay-per-use bill would charge (consumed
   CPU-seconds and GB-seconds at the platform's unit prices),
2. **allocation inflation** -- charging for the allocation over the wall-clock
   duration instead of consumption,
3. **scheduling effects** -- duration changes from bandwidth-control
   quantization at fractional allocations,
4. **serving overhead** -- the serving architecture's latency adder billed at
   the allocation,
5. **billing rounding** -- duration/resource granularity and minimum cutoffs,
6. **invocation fee** -- the fixed per-request charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.billing.calculator import BillingCalculator, InvocationBillingInput
from repro.billing.catalog import PlatformName
from repro.billing.units import ResourceKind
from repro.core.cost_model import CostModel
from repro.platform.config import PlatformConfig
from repro.workloads.functions import WorkloadSpec

__all__ = ["CostDecomposition", "decompose_invocation_cost"]


@dataclass(frozen=True)
class CostDecomposition:
    """Layer-by-layer cost contributions for one invocation (USD)."""

    platform: str
    usage_baseline: float
    allocation_inflation: float
    scheduling_effect: float
    serving_overhead: float
    billing_rounding: float
    invocation_fee: float

    @property
    def total(self) -> float:
        return (
            self.usage_baseline
            + self.allocation_inflation
            + self.scheduling_effect
            + self.serving_overhead
            + self.billing_rounding
            + self.invocation_fee
        )

    def shares(self) -> Dict[str, float]:
        """Each layer's share of the total cost (sums to 1 when total > 0)."""
        total = self.total
        if total <= 0:
            return {}
        return {
            "usage_baseline": self.usage_baseline / total,
            "allocation_inflation": self.allocation_inflation / total,
            "scheduling_effect": self.scheduling_effect / total,
            "serving_overhead": self.serving_overhead / total,
            "billing_rounding": self.billing_rounding / total,
            "invocation_fee": self.invocation_fee / total,
        }

    def ranked_drivers(self) -> List[str]:
        """Cost drivers ranked from largest to smallest contribution."""
        shares = self.shares()
        shares.pop("usage_baseline", None)
        return [name for name, _ in sorted(shares.items(), key=lambda kv: kv[1], reverse=True)]


def _resource_unit_prices(calculator: BillingCalculator) -> Dict[ResourceKind, float]:
    """Per-unit prices of the platform's billable resources (for the usage baseline)."""
    prices: Dict[ResourceKind, float] = {}
    for resource in calculator.model.allocation_resources:
        prices[resource.kind] = resource.unit_price
    for resource in calculator.model.usage_resources:
        prices.setdefault(resource.kind, resource.unit_price)
    return prices


def _cost_without_rounding(
    calculator: BillingCalculator, inputs: InvocationBillingInput
) -> float:
    """Allocation-based cost with no granularity rounding, cutoffs, or fees."""
    allocations = calculator.effective_allocations(inputs)
    usages = calculator.effective_usages(inputs)
    model = calculator.model
    raw_time = model.raw_billable_seconds(
        inputs.execution_s, inputs.init_s, inputs.instance_s, inputs.used_cpu_seconds
    )
    cost = 0.0
    for resource in model.allocation_resources:
        amount = usages.get(resource.kind, 0.0) if resource.use_consumption else allocations.get(resource.kind, 0.0)
        cost += amount * raw_time * resource.unit_price
    for resource in model.usage_resources:
        cost += usages.get(resource.kind, 0.0) * resource.unit_price
    return cost


def decompose_invocation_cost(
    workload: WorkloadSpec,
    alloc_vcpus: float,
    alloc_memory_gb: float,
    billing_platform: "PlatformName | str",
    serving_platform: Optional[PlatformConfig] = None,
    scheduling_provider: Optional[str] = None,
    concurrent_requests: int = 1,
) -> CostDecomposition:
    """Decompose one invocation's cost into per-layer contributions.

    The decomposition is constructed by evaluating a ladder of increasingly
    realistic cost models and attributing each increment to the layer that was
    added.  Negative increments (e.g. scheduling overallocation *reducing*
    duration-based charges) are preserved as negative contributions.
    """
    calculator = BillingCalculator(billing_platform)
    prices = _resource_unit_prices(calculator)

    # Rung 0: ideal usage-based cost (perfect pay-per-use).
    usage_cost = (
        workload.cpu_time_s * prices.get(ResourceKind.CPU, 0.0)
        + workload.used_memory_gb
        * (workload.cpu_time_s / min(alloc_vcpus, 1.0) + workload.io_time_s)
        * prices.get(ResourceKind.MEMORY, 0.0)
    )

    # Rung 1: allocation-based billing over the ideal (reciprocal) duration,
    # no serving overhead, no rounding, no fee.
    ideal_model = CostModel(billing_platform, serving_platform=None, scheduling_provider=None)
    ideal_duration = ideal_model.execution_duration_s(workload, alloc_vcpus)
    rung1 = _cost_without_rounding(
        calculator,
        InvocationBillingInput(
            execution_s=ideal_duration,
            init_s=0.0,
            alloc_vcpus=alloc_vcpus,
            alloc_memory_gb=alloc_memory_gb,
            used_cpu_seconds=workload.cpu_time_s,
            used_memory_gb=workload.used_memory_gb,
        ),
    )

    # Rung 2: + scheduling effects (Equation 2 duration instead of reciprocal).
    sched_model = CostModel(billing_platform, serving_platform=None, scheduling_provider=scheduling_provider)
    sched_duration = sched_model.execution_duration_s(workload, alloc_vcpus)
    rung2 = _cost_without_rounding(
        calculator,
        InvocationBillingInput(
            execution_s=sched_duration,
            init_s=0.0,
            alloc_vcpus=alloc_vcpus,
            alloc_memory_gb=alloc_memory_gb,
            used_cpu_seconds=workload.cpu_time_s,
            used_memory_gb=workload.used_memory_gb,
        ),
    )

    # Rung 3: + serving overhead and contention.
    serving_model = CostModel(
        billing_platform, serving_platform=serving_platform, scheduling_provider=scheduling_provider
    )
    serving_duration = serving_model.execution_duration_s(
        workload, alloc_vcpus, concurrent_requests=concurrent_requests
    )
    rung3 = _cost_without_rounding(
        calculator,
        InvocationBillingInput(
            execution_s=serving_duration,
            init_s=0.0,
            alloc_vcpus=alloc_vcpus,
            alloc_memory_gb=alloc_memory_gb,
            used_cpu_seconds=workload.cpu_time_s,
            used_memory_gb=workload.used_memory_gb,
        ),
    )

    # Rung 4: + billing granularity, cutoffs and the invocation fee (full bill).
    report = serving_model.invocation_cost(
        workload, alloc_vcpus, alloc_memory_gb, concurrent_requests=concurrent_requests
    )
    full = report.cost_per_invocation
    fee = report.breakdown.get("invocation_fee", 0.0)
    rounding = full - fee - rung3

    return CostDecomposition(
        platform=calculator.model.platform,
        usage_baseline=usage_cost,
        allocation_inflation=rung1 - usage_cost,
        scheduling_effect=rung2 - rung1,
        serving_overhead=rung3 - rung2,
        billing_rounding=rounding,
        invocation_fee=fee,
    )
