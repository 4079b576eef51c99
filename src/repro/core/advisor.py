"""Actionable recommendations for serverless users (paper §5).

The paper closes with recommendations practitioners can act on:

- pick the platform whose billing practices, concurrency model, serving
  architecture, keep-alive behaviour and scheduling granularity best match the
  workload (:class:`PlatformSelectionAdvisor`),
- merge similar functions to amortise invocation fees, or decompose functions
  to improve utilisation (:func:`evaluate_function_merging`,
  :func:`evaluate_function_decomposition`),
- tune resource allocations away from quantization boundaries
  (:class:`repro.core.rightsizing.RightsizingAdvisor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.billing.catalog import PlatformName
from repro.billing.meter import CostMeter
from repro.billing.models import BillableTime
from repro.core.cost_model import CostModel
from repro.numeric import fold
from repro.platform.config import PlatformConfig
from repro.platform.presets import PLATFORM_PRESETS
from repro.traces.schema import Trace
from repro.workloads.functions import WorkloadSpec

__all__ = [
    "PlatformRanking",
    "PlatformSelectionAdvisor",
    "MergeRecommendation",
    "evaluate_function_merging",
    "DecompositionRecommendation",
    "evaluate_function_decomposition",
]

#: Billing platform matched with its §3 serving preset and §4 scheduling provider.
_DEFAULT_DEPLOYMENTS: Dict[PlatformName, Dict[str, Optional[str]]] = {
    PlatformName.AWS_LAMBDA: {"serving": "aws_lambda_like", "sched": "aws_lambda"},
    PlatformName.GCP_RUN_REQUEST: {"serving": "gcp_run_like", "sched": "gcp_run_functions"},
    PlatformName.AZURE_CONSUMPTION: {"serving": "azure_consumption_like", "sched": None},
    PlatformName.IBM_CODE_ENGINE: {"serving": "ibm_code_engine_like", "sched": "ibm_code_engine"},
    PlatformName.CLOUDFLARE_WORKERS: {"serving": "cloudflare_workers_like", "sched": None},
}


@dataclass(frozen=True)
class PlatformRanking:
    """One platform's projected cost for a workload at a request volume."""

    platform: str
    cost_per_invocation: float
    monthly_cost: float
    execution_duration_s: float
    invocation_fee_share: float

    def as_row(self) -> Dict[str, float]:
        return {
            "platform": self.platform,  # type: ignore[dict-item]
            "cost_per_invocation": self.cost_per_invocation,
            "monthly_cost": self.monthly_cost,
            "execution_duration_ms": self.execution_duration_s * 1e3,
            "invocation_fee_share": self.invocation_fee_share,
        }


class PlatformSelectionAdvisor:
    """Rank platforms by projected cost for a given workload and traffic volume.

    The projection applies each platform's billing model (Table 1), its serving
    architecture overhead (§3.2) and its OS-scheduling duration effects (§4)
    through :class:`repro.core.cost_model.CostModel`.
    """

    def __init__(
        self,
        deployments: Optional[Dict[PlatformName, Dict[str, Optional[str]]]] = None,
        presets: Optional[Dict[str, PlatformConfig]] = None,
    ) -> None:
        self.deployments = dict(deployments or _DEFAULT_DEPLOYMENTS)
        self.presets = dict(presets or PLATFORM_PRESETS)

    def rank(
        self,
        workload: WorkloadSpec,
        alloc_vcpus: float,
        alloc_memory_gb: float,
        requests_per_month: float,
        concurrent_requests: int = 1,
    ) -> List[PlatformRanking]:
        """Return platforms sorted by monthly cost (cheapest first)."""
        if requests_per_month < 0:
            raise ValueError("requests_per_month must be >= 0")
        rankings: List[PlatformRanking] = []
        for platform, deployment in self.deployments.items():
            serving = self.presets.get(deployment["serving"]) if deployment["serving"] else None
            model = CostModel(platform, serving_platform=serving, scheduling_provider=deployment["sched"])
            report = model.invocation_cost(
                workload, alloc_vcpus, alloc_memory_gb, concurrent_requests=concurrent_requests
            )
            rankings.append(
                PlatformRanking(
                    platform=platform.value,
                    cost_per_invocation=report.cost_per_invocation,
                    monthly_cost=report.monthly_cost(requests_per_month),
                    execution_duration_s=report.execution_duration_s,
                    invocation_fee_share=report.invocation_fee_share,
                )
            )
        return sorted(rankings, key=lambda r: r.monthly_cost)

    def rank_for_trace(
        self, trace: Trace, requests_per_month: Optional[float] = None
    ) -> List[PlatformRanking]:
        """Rank platforms using a trace's empirical request mix instead of a single workload.

        Each request is metered under each platform's model (via
        :class:`CostMeter`), which captures duration rounding and fee effects
        for the trace's real duration distribution.
        """
        requests = trace.exclude_zero_cpu().requests
        if not requests:
            raise ValueError("trace has no CPU-reporting requests")
        volume = requests_per_month if requests_per_month is not None else float(len(requests))
        mean_duration = fold((record.duration_s for record in requests), 0.0) / len(requests)
        rankings: List[PlatformRanking] = []
        for platform in self.deployments:
            meter = CostMeter(platform)
            if meter.model.billable_time is BillableTime.INSTANCE:
                raise ValueError(f"{platform.value} bills instance lifespans, not requests")
            for record in requests:
                meter.meter_outcome(record)
            total = meter.cost_usd
            per_invocation = total / len(requests)
            rankings.append(
                PlatformRanking(
                    platform=platform.value,
                    cost_per_invocation=per_invocation,
                    monthly_cost=per_invocation * volume,
                    execution_duration_s=mean_duration,
                    invocation_fee_share=(meter.invocation_fee_usd / total) if total > 0 else 0.0,
                )
            )
        return sorted(rankings, key=lambda r: r.monthly_cost)


# ----------------------------------------------------------------------
# Function merging / decomposition (§5)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MergeRecommendation:
    """Outcome of merging a chain of functions into a single function."""

    separate_cost: float
    merged_cost: float
    num_functions: int

    @property
    def saving(self) -> float:
        """Fractional cost saving from merging (positive means merging is cheaper)."""
        if self.separate_cost <= 0:
            return 0.0
        return 1.0 - self.merged_cost / self.separate_cost

    @property
    def worthwhile(self) -> bool:
        return self.saving > 0


def evaluate_function_merging(
    workloads: Sequence[WorkloadSpec],
    alloc_vcpus: float,
    alloc_memory_gb: float,
    billing_platform: "PlatformName | str" = PlatformName.AWS_LAMBDA,
    scheduling_provider: Optional[str] = "aws_lambda",
) -> MergeRecommendation:
    """Compare invoking a chain of functions separately versus as one merged function.

    Merging removes the per-invocation fee of all but one call and avoids
    repeated minimum-billing cutoffs; it can hurt when the merged function
    forces a larger allocation for the whole duration (not modelled here: the
    merged function keeps the same allocation).
    """
    if not workloads:
        raise ValueError("at least one workload is required")
    model = CostModel(billing_platform, scheduling_provider=scheduling_provider)
    separate = sum(
        model.invocation_cost(w, alloc_vcpus, alloc_memory_gb).cost_per_invocation for w in workloads
    )
    merged_spec = WorkloadSpec(
        name="merged",
        cpu_time_s=sum(w.cpu_time_s for w in workloads),
        io_time_s=sum(w.io_time_s for w in workloads),
        used_memory_gb=max(w.used_memory_gb for w in workloads),
        description="merged chain",
    )
    merged = model.invocation_cost(merged_spec, alloc_vcpus, alloc_memory_gb).cost_per_invocation
    return MergeRecommendation(separate_cost=separate, merged_cost=merged, num_functions=len(workloads))


@dataclass(frozen=True)
class DecompositionRecommendation:
    """Outcome of decomposing one function into smaller pieces."""

    monolithic_cost: float
    decomposed_cost: float
    num_pieces: int

    @property
    def saving(self) -> float:
        if self.monolithic_cost <= 0:
            return 0.0
        return 1.0 - self.decomposed_cost / self.monolithic_cost

    @property
    def worthwhile(self) -> bool:
        return self.saving > 0


def evaluate_function_decomposition(
    workload: WorkloadSpec,
    piece_allocations_vcpus: Sequence[float],
    piece_cpu_fractions: Sequence[float],
    alloc_memory_gb: float,
    piece_memory_gb: Optional[Sequence[float]] = None,
    monolithic_vcpus: Optional[float] = None,
    billing_platform: "PlatformName | str" = PlatformName.AWS_LAMBDA,
    scheduling_provider: Optional[str] = "aws_lambda",
) -> DecompositionRecommendation:
    """Compare one right-sized-per-stage decomposition against the monolithic function.

    Decomposition lets each stage run at its own allocation (the paper's
    "decomposing functions to better utilize resources"), at the price of one
    invocation fee per stage.  ``piece_memory_gb`` fixes each stage's memory
    allocation; when omitted, each stage gets the proportional memory for its
    vCPU allocation (1,769 MB per vCPU), floored at the workload's resident
    memory -- i.e. the stage is right-sized rather than inheriting the
    monolithic function's allocation.
    """
    from repro.billing.pricing import VCPU_EQUIVALENT_MEMORY_GB

    if len(piece_allocations_vcpus) != len(piece_cpu_fractions):
        raise ValueError("piece allocation and fraction lists must have the same length")
    if abs(sum(piece_cpu_fractions) - 1.0) > 1e-6:
        raise ValueError("piece_cpu_fractions must sum to 1")
    if piece_memory_gb is not None and len(piece_memory_gb) != len(piece_allocations_vcpus):
        raise ValueError("piece_memory_gb must match piece_allocations_vcpus in length")
    model = CostModel(billing_platform, scheduling_provider=scheduling_provider)
    monolithic_vcpus = monolithic_vcpus if monolithic_vcpus is not None else max(piece_allocations_vcpus)
    monolithic = model.invocation_cost(workload, monolithic_vcpus, alloc_memory_gb).cost_per_invocation
    decomposed = 0.0
    for index, (vcpus, fraction) in enumerate(zip(piece_allocations_vcpus, piece_cpu_fractions)):
        if piece_memory_gb is not None:
            memory = piece_memory_gb[index]
        else:
            memory = max(workload.used_memory_gb, vcpus * VCPU_EQUIVALENT_MEMORY_GB)
        piece = WorkloadSpec(
            name=f"{workload.name}_piece",
            cpu_time_s=workload.cpu_time_s * fraction,
            io_time_s=workload.io_time_s * fraction,
            used_memory_gb=workload.used_memory_gb,
        )
        decomposed += model.invocation_cost(piece, vcpus, memory).cost_per_invocation
    return DecompositionRecommendation(
        monolithic_cost=monolithic, decomposed_cost=decomposed, num_pieces=len(piece_allocations_vcpus)
    )
