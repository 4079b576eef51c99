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

from repro.billing.calculator import BillingCalculator
from repro.billing.catalog import PlatformName
from repro.billing.models import FEE_LABEL
from repro.billing.pricing import PLATFORM_PRICES
from repro.core.cost_model import CostModel
from repro.numeric import fold
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
    duration-based charges) are preserved as negative contributions.  Rungs
    1-3 are one compiled Equation 1 of the platform's rounding-free model
    (:meth:`BillingModel.without_rounding`) at three durations; rung 4 is the
    full bill.
    """
    # Rung 1's ideal (reciprocal) duration: no serving overhead, no scheduling.
    ideal_duration = CostModel(billing_platform).execution_duration_s(workload, alloc_vcpus)
    # Rung 4: the full bill (serving overhead, contention, rounding, cutoffs, fee).
    serving_model = CostModel(
        billing_platform, serving_platform=serving_platform, scheduling_provider=scheduling_provider
    )
    report = serving_model.invocation_cost(
        workload, alloc_vcpus, alloc_memory_gb, concurrent_requests=concurrent_requests
    )
    calculator = serving_model.calculator
    price = BillingCalculator(calculator.model.without_rounding()).compile(
        report, include_invocation_fee=False
    )

    def unrounded(duration_s: float) -> float:
        rows, _, _ = price(duration_s, 0.0, workload.cpu_time_s, workload.used_memory_gb)
        return fold((charge for *_, charge in rows), 0.0)

    # Rung 0: ideal usage-based cost (perfect pay-per-use).
    unit_prices = PLATFORM_PRICES[calculator.platform]
    usage_cost = (
        workload.cpu_time_s * unit_prices.cpu_per_vcpu_second
        + workload.used_memory_gb * ideal_duration * unit_prices.memory_per_gb_second
    )
    # Rung 1: allocation-based billing over the ideal duration.
    rung1 = unrounded(ideal_duration)
    # Rung 2: + scheduling effects (Equation 2 duration instead of reciprocal).
    sched_model = CostModel(billing_platform, scheduling_provider=scheduling_provider)
    rung2 = unrounded(sched_model.execution_duration_s(workload, alloc_vcpus))
    # Rung 3: + serving overhead and contention.
    rung3 = unrounded(report.execution_duration_s)
    fee = report.breakdown.get(FEE_LABEL, 0.0)
    rounding = report.cost_per_invocation - fee - rung3

    return CostDecomposition(
        platform=calculator.model.platform,
        usage_baseline=usage_cost,
        allocation_inflation=rung1 - usage_cost,
        scheduling_effect=rung2 - rung1,
        serving_overhead=rung3 - rung2,
        billing_rounding=rounding,
        invocation_fee=fee,
    )
