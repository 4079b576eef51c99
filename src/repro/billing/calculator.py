"""Per-invocation billing calculator: turns trace records into billable resources and invoices.

This module bridges the trace schema (§2.3's Huawei-like request records) and
the billing models of Table 1.  Its core job is to answer, for every request
and every platform: *how many vCPU-seconds and GB-seconds would this request
be billed for, and what would it cost*, under the platform's notion of billable
time, resource rounding and invocation fee.

Platform-specific allocation mapping follows the paper's methodology:

- **AWS (proportional allocation)**: the billable memory is the larger of the
  trace's memory allocation and the memory equivalent of the trace's vCPU
  allocation (1,769 MB per vCPU), because AWS couples CPU to memory and the
  workload must be given enough memory to receive its vCPU share.
- **Huawei (fixed combos)**: the trace's own flavor is billed as-is.
- **GCP (time rounding)**: allocated CPU and memory over 100 ms-rounded time.
- **Azure Consumption (time and usage rounding)**: consumed memory rounded to
  128 MB over execution time with a 100 ms minimum.
- **Cloudflare (CPU time)**: consumed CPU time only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.billing.catalog import PlatformName, get_billing_model
from repro.billing.models import BillingModel, BillRow, Invoice, billable_quantities
from repro.billing.pricing import VCPU_EQUIVALENT_MEMORY_GB
from repro.billing.units import ResourceKind
from repro.traces.schema import RequestRecord

__all__ = ["InvocationBillingInput", "BillingCalculator", "BilledInvocation"]


@dataclass(frozen=True)
class InvocationBillingInput:
    """Normalised inputs the billing calculator needs for one invocation."""

    execution_s: float
    init_s: float
    alloc_vcpus: float
    alloc_memory_gb: float
    used_cpu_seconds: float
    used_memory_gb: float
    instance_s: Optional[float] = None

    @classmethod
    def from_request(cls, record: RequestRecord) -> "InvocationBillingInput":
        """Build billing inputs from a trace request record."""
        return cls(
            execution_s=record.duration_s,
            init_s=record.init_duration_s,
            alloc_vcpus=record.alloc_vcpus,
            alloc_memory_gb=record.alloc_memory_gb,
            used_cpu_seconds=record.usage.cpu_seconds,
            used_memory_gb=record.usage.memory_gb,
        )


@dataclass(frozen=True)
class BilledInvocation:
    """The outcome of billing one invocation on one platform."""

    platform: str
    billable_cpu_seconds: float
    billable_memory_gb_seconds: float
    actual_cpu_seconds: float
    actual_memory_gb_seconds: float
    invoice: Invoice

    @property
    def cpu_inflation(self) -> float:
        """Billable over actual vCPU-seconds (>= 1 means over-accounting)."""
        if self.actual_cpu_seconds <= 0:
            return float("inf") if self.billable_cpu_seconds > 0 else 1.0
        return self.billable_cpu_seconds / self.actual_cpu_seconds

    @property
    def memory_inflation(self) -> float:
        """Billable over actual GB-seconds (>= 1 means over-accounting)."""
        if self.actual_memory_gb_seconds <= 0:
            return float("inf") if self.billable_memory_gb_seconds > 0 else 1.0
        return self.billable_memory_gb_seconds / self.actual_memory_gb_seconds


class BillingCalculator:
    """Computes billable resources and invoices for invocations on a platform."""

    def __init__(self, platform: "PlatformName | str | BillingModel") -> None:
        if isinstance(platform, BillingModel):
            self.model = platform
            try:
                self.platform: Optional[PlatformName] = PlatformName(platform.platform)
            except ValueError:
                self.platform = None
        else:
            self.platform = PlatformName(platform) if isinstance(platform, str) else platform
            self.model = get_billing_model(self.platform)

    # ------------------------------------------------------------------
    # Allocation mapping (paper §2.3)
    # ------------------------------------------------------------------

    def effective_allocations(self, inputs: InvocationBillingInput) -> Dict[ResourceKind, float]:
        """Map a request's resource allocation onto this platform's control knobs.

        Only ``inputs.alloc_vcpus`` and ``inputs.alloc_memory_gb`` are read.
        """
        vcpus = inputs.alloc_vcpus
        memory_gb = inputs.alloc_memory_gb
        if self.model.cpu_embedded_in_memory and self.platform is PlatformName.AWS_LAMBDA:
            # Proportional allocation: pick the memory size large enough to grant
            # both the trace's memory and its vCPU share (the paper maps Huawei
            # flavors to AWS by taking the larger of the two).
            memory_for_cpu = vcpus * VCPU_EQUIVALENT_MEMORY_GB
            memory_gb = max(memory_gb, memory_for_cpu)
            vcpus = memory_gb / VCPU_EQUIVALENT_MEMORY_GB
        return {ResourceKind.CPU: vcpus, ResourceKind.MEMORY: memory_gb}

    # ------------------------------------------------------------------
    # Billable resources and invoices
    # ------------------------------------------------------------------

    def compile(
        self, flavor: "InvocationBillingInput | RequestRecord", include_invocation_fee: bool = True
    ) -> Callable[..., Tuple[List[BillRow], float, float]]:
        """This platform's Equation 1 for one flavor (a vCPU and memory allocation).

        ``flavor`` is anything with ``alloc_vcpus`` and ``alloc_memory_gb``.
        Returns ``price(execution_s, init_s, used_cpu_seconds, used_memory_gb,
        instance_s=None) -> (rows, billable_cpu, billable_memory)``: the
        model's :meth:`BillingModel.compile` rows and the billable vCPU-seconds
        and GB-seconds of one invocation -- or, given float ``np.ndarray``
        columns, of each invocation of the flavor.  For memory-based-billing
        platforms the billable *CPU* time is the vCPU allocation implied by the
        billed memory times the billable duration, matching the paper's
        treatment ("CPU pricing is usually embedded for platforms with
        memory-based billing; therefore, we include billable vCPU time for AWS").
        """
        model = self.model
        allocations = self.effective_allocations(flavor)
        rows_at = model.compile(allocations, include_invocation_fee)
        embedded_cpu = None  # the CPU share of the billed memory, when CPU is not billed
        if model.cpu_embedded_in_memory and all(
            r.kind is not ResourceKind.CPU
            for r in (*model.allocation_resources, *model.usage_resources)
        ):
            embedded_cpu = allocations[ResourceKind.CPU]
        billable_seconds = model.billable_seconds
        cpu_kind, memory_kind = ResourceKind.CPU, ResourceKind.MEMORY

        def price(execution_s, init_s, used_cpu_seconds, used_memory_gb, instance_s=None):
            billable_time = billable_seconds(execution_s, init_s, instance_s, used_cpu_seconds)
            # Usages: consumed vCPU-seconds (Cloudflare bills that amount) and
            # average resident GB (Azure multiplies it by the billable time).
            rows = rows_at(billable_time, {cpu_kind: used_cpu_seconds, memory_kind: used_memory_gb})
            cpu = memory = 0.0
            for _, kind, quantity, _, _ in rows:
                if kind is cpu_kind:
                    cpu += quantity
                elif kind is memory_kind:
                    memory += quantity
            if embedded_cpu is not None:
                cpu = embedded_cpu * billable_time
            return rows, cpu, memory

        return price

    def billable_resources(self, inputs: InvocationBillingInput) -> Dict[ResourceKind, float]:
        """Billable vCPU-seconds / GB-seconds (and any other billed kind) for one invocation."""
        rows, cpu, _ = self.compile(inputs, include_invocation_fee=False)(
            inputs.execution_s, inputs.init_s, inputs.used_cpu_seconds, inputs.used_memory_gb,
            inputs.instance_s,
        )
        billable = billable_quantities(rows)
        if self.model.cpu_embedded_in_memory:
            billable.setdefault(ResourceKind.CPU, cpu)
        return billable

    def bill(self, inputs: InvocationBillingInput, include_invocation_fee: bool = True) -> BilledInvocation:
        """Bill one invocation: billable resources plus the monetary invoice."""
        rows, cpu, memory = self.compile(inputs, include_invocation_fee)(
            inputs.execution_s, inputs.init_s, inputs.used_cpu_seconds, inputs.used_memory_gb,
            inputs.instance_s,
        )
        return BilledInvocation(
            platform=self.model.platform,
            billable_cpu_seconds=cpu,
            billable_memory_gb_seconds=memory,
            actual_cpu_seconds=inputs.used_cpu_seconds,
            actual_memory_gb_seconds=inputs.used_memory_gb * inputs.execution_s,
            invoice=Invoice.from_rows(self.model.platform, rows),
        )

    def bill_request(self, record: RequestRecord, include_invocation_fee: bool = True) -> BilledInvocation:
        """Convenience wrapper billing a trace request record directly."""
        return self.bill(InvocationBillingInput.from_request(record), include_invocation_fee)

    # ------------------------------------------------------------------
    # Invocation-fee equivalence (paper Figure 5-left)
    # ------------------------------------------------------------------

    def invocation_fee_equivalent_ms(self, alloc_vcpus: float, alloc_memory_gb: float) -> float:
        """Express the invocation fee as equivalent billable wall-clock milliseconds.

        This answers: how many milliseconds of billable duration at this
        resource allocation would cost the same as one invocation fee?  The
        paper computes 96 ms for a default 128 MB AWS Lambda function.
        """
        if self.model.invocation_fee <= 0:
            return 0.0
        per_second = 0.0
        for resource in self.model.allocation_resources:
            if resource.kind is ResourceKind.CPU:
                per_second += resource.billable_amount(alloc_vcpus) * resource.unit_price
            elif resource.kind is ResourceKind.MEMORY:
                per_second += resource.billable_amount(alloc_memory_gb) * resource.unit_price
        for resource in self.model.usage_resources:
            if resource.kind is ResourceKind.CPU:
                # Usage-billed CPU: one second of billable time at full allocation
                # consumes alloc_vcpus vCPU-seconds.
                per_second += alloc_vcpus * resource.unit_price
        if per_second <= 0:
            return float("inf")
        return (self.model.invocation_fee / per_second) * 1e3
