"""The generalised serverless billing model (paper Equation 1).

A :class:`BillingModel` is composed of:

- a notion of billable wall-clock time (execution time, turnaround time, or
  instance lifespan) with a time granularity and optional minimum cutoff,
- a set of allocation-billed resources (billed as ``allocation x billable time``,
  each with its own granularity, e.g. AWS memory in 1 MB steps),
- a set of usage-billed resources (billed on absolute consumption, e.g.
  Cloudflare's consumed CPU time),
- a fixed per-invocation fee.

The model exposes both *billable resource* computation (vCPU-seconds and
GB-seconds before prices are applied -- what the paper's Figure 2 plots) and
monetary cost computation (an :class:`Invoice` with per-line items).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.billing.units import ResourceKind, apply_minimum, round_up
from repro.numeric import fold

__all__ = [
    "BillableTime",
    "AllocationBilledResource",
    "UsageBilledResource",
    "FEE_LABEL",
    "BillRow",
    "billable_quantities",
    "BillLineItem",
    "Invoice",
    "BillingModel",
]


class BillableTime(str, enum.Enum):
    """Which wall-clock duration a platform bills for (paper Table 1)."""

    #: Execution duration only (e.g. Azure Consumption, Huawei, Alibaba).
    EXECUTION = "execution"
    #: Execution plus initialisation/cold-start duration (e.g. GCP, IBM, AWS since 2025-08).
    TURNAROUND = "turnaround"
    #: Whole runtime instance lifespan regardless of requests (instance-based billing).
    INSTANCE = "instance"
    #: Consumed CPU time rather than wall-clock time (Cloudflare Workers).
    CPU_TIME = "cpu_time"


# Enum member lookups cost ~100 ns each on CPython 3.11; these run per bill.
_EXECUTION, _TURNAROUND, _INSTANCE, _CPU_TIME = BillableTime


@dataclass(frozen=True)
class AllocationBilledResource:
    """A resource billed as (rounded allocation) x (rounded billable time).

    Attributes:
        kind: which resource (CPU or memory).
        granularity: allocation rounding step in the resource's native unit
            (vCPUs or GB); ``0`` disables rounding.
        unit_price: price per resource-unit-second (e.g. $ per GB-second).
        use_consumption: bill the *measured average consumption* over the
            billable window instead of the configured allocation.  This models
            Azure Functions Consumption, which charges for observed memory
            (rounded to 128 MB) multiplied by execution time rather than for a
            configured memory size.
    """

    kind: ResourceKind
    granularity: float = 0.0
    unit_price: float = 0.0
    use_consumption: bool = False

    def billable_amount(self, allocation: float) -> float:
        """Round an allocation (or consumption) amount up to the billing granularity."""
        return round_up(allocation, self.granularity)


@dataclass(frozen=True)
class UsageBilledResource:
    """A resource billed on absolute consumption over the billable window."""

    kind: ResourceKind
    granularity: float = 0.0
    unit_price: float = 0.0

    def billable_amount(self, usage: float) -> float:
        """Round a usage amount up to the billing granularity."""
        return round_up(usage, self.granularity)


#: Label of the per-invocation fee's line item.
FEE_LABEL = "invocation_fee"


#: One priced line of Equation 1, as :meth:`BillingModel.compile` emits it:
#: ``(label, kind, quantity, unit_price, charge)``; the fee's kind is ``None``.
BillRow = Tuple[str, Optional[ResourceKind], float, float, float]


def billable_quantities(rows: Sequence[BillRow]) -> Dict[ResourceKind, float]:
    """Sum the rows' billable quantities by resource kind (the fee has none)."""
    out: Dict[ResourceKind, float] = {}
    for _, kind, quantity, _, _ in rows:
        if kind is not None:
            out[kind] = out.get(kind, 0.0) + quantity
    return out


@dataclass(frozen=True)
class BillLineItem:
    """One line of an invoice: a billable quantity and its monetary charge."""

    label: str
    quantity: float
    unit: str
    unit_price: float
    charge: float


@dataclass(frozen=True)
class Invoice:
    """The monetary outcome of billing one invocation (or one instance window)."""

    platform: str
    line_items: Sequence[BillLineItem]

    @classmethod
    def from_rows(cls, platform: str, rows: Sequence[BillRow]) -> "Invoice":
        """The invoice of one :meth:`BillingModel.compile` evaluation."""
        return cls(platform, tuple(
            BillLineItem(label, quantity, "requests" if kind is None else f"{kind.value}-seconds",
                         unit_price, charge)
            for label, kind, quantity, unit_price, charge in rows
        ))

    @property
    def total(self) -> float:
        return fold((item.charge for item in self.line_items), 0.0)

    def charge_for(self, label_prefix: str) -> float:
        """Sum the charges of line items whose label starts with ``label_prefix``."""
        return fold(
            (item.charge for item in self.line_items if item.label.startswith(label_prefix)), 0.0
        )

    def as_dict(self) -> Dict[str, float]:
        result = {item.label: item.charge for item in self.line_items}
        result["total"] = self.total
        return result


@dataclass(frozen=True)
class BillingModel:
    """A platform's pay-per-use billing model (one row of the paper's Table 1)."""

    platform: str
    billable_time: BillableTime
    #: Wall-clock (or CPU-time) billing granularity in seconds; 0 disables rounding.
    time_granularity_s: float = 0.0
    #: Minimum billable duration in seconds (e.g. Azure Consumption's 100 ms cutoff).
    minimum_time_s: float = 0.0
    #: Resources billed as allocation x time.
    allocation_resources: Sequence[AllocationBilledResource] = field(default_factory=tuple)
    #: Resources billed on absolute usage.
    usage_resources: Sequence[UsageBilledResource] = field(default_factory=tuple)
    #: Fixed fee charged per invocation (C_0 in Equation 1).
    invocation_fee: float = 0.0
    #: True when CPU is not billed separately but embedded in the memory price
    #: (proportional-allocation platforms such as AWS Lambda and Vercel).
    cpu_embedded_in_memory: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
        if self.time_granularity_s < 0 or self.minimum_time_s < 0:
            raise ValueError("time granularity and minimum must be >= 0")
        if self.invocation_fee < 0:
            raise ValueError("invocation fee must be >= 0")

    # ------------------------------------------------------------------
    # Billable time
    # ------------------------------------------------------------------

    def raw_billable_seconds(
        self,
        execution_s: float,
        init_s: float = 0.0,
        instance_s: Optional[float] = None,
        cpu_time_s: float = 0.0,
    ) -> float:
        """The duration this model bills for, before rounding and cutoffs.

        Args:
            execution_s: request execution wall-clock duration.
            init_s: initialisation (cold start) duration of this invocation.
            instance_s: instance lifespan for instance-billed platforms.
            cpu_time_s: consumed CPU time, for CPU-time-billed platforms.
        """
        billable_time = self.billable_time
        if billable_time is _EXECUTION:
            return execution_s
        if billable_time is _TURNAROUND:
            return execution_s + init_s
        if billable_time is _INSTANCE:
            if instance_s is None:
                raise ValueError("instance_s is required for instance-based billing")
            return instance_s
        if billable_time is _CPU_TIME:
            return cpu_time_s
        raise ValueError(f"unknown billable time {self.billable_time}")

    def billable_seconds(
        self,
        execution_s: float,
        init_s: float = 0.0,
        instance_s: Optional[float] = None,
        cpu_time_s: float = 0.0,
    ) -> float:
        """:meth:`raw_billable_seconds` after granularity rounding and the minimum cutoff."""
        raw = self.raw_billable_seconds(execution_s, init_s, instance_s, cpu_time_s)
        return apply_minimum(round_up(raw, self.time_granularity_s), self.minimum_time_s)

    # ------------------------------------------------------------------
    # Equation 1: billable resources (Figure 2's quantities) and invoices
    # ------------------------------------------------------------------

    def compile(
        self,
        allocations: Mapping[ResourceKind, float],
        include_invocation_fee: bool = True,
    ) -> Callable[..., List[BillRow]]:
        """Equation 1 for fixed allocations, as a function of billable time and usages.

        The rounded allocations, the unit prices and the fee are folded once;
        the returned ``rows(billable_time, usages)`` prices one
        :meth:`billable_seconds` and usage mapping (floats, or float
        ``np.ndarray`` columns with one element per invocation, equal to the
        scalar results bit for bit) as one :data:`BillRow` per line item.  This
        is the only evaluation of Equation 1.
        """
        # (label, kind, unit price, rounded allocation -- None to bill the
        # rounded usage -- and the rounding); quantity = amount x billable time
        scaled = [
            (f"alloc:{r.kind.value}", r.kind, r.unit_price,
             None if r.use_consumption else r.billable_amount(allocations.get(r.kind, 0.0)),
             r.billable_amount)
            for r in self.allocation_resources
        ]
        # usage-billed rows do not depend on billable time
        usage_billed = [(f"usage:{r.kind.value}", r.kind, r.unit_price, r.billable_amount)
                        for r in self.usage_resources]
        fee = []
        if include_invocation_fee and self.invocation_fee > 0:
            fee.append((FEE_LABEL, None, 1.0, self.invocation_fee, self.invocation_fee))

        def rows(billable_time, usages: Mapping[ResourceKind, object]) -> List[BillRow]:
            out = []
            for label, kind, unit_price, amount, billable_amount in scaled:
                if amount is None:
                    amount = billable_amount(usages.get(kind, 0.0))
                quantity = amount * billable_time
                out.append((label, kind, quantity, unit_price, quantity * unit_price))
            for label, kind, unit_price, billable_amount in usage_billed:
                quantity = billable_amount(usages.get(kind, 0.0))
                out.append((label, kind, quantity, unit_price, quantity * unit_price))
            return out + fee

        return rows

    def billable_resources(
        self,
        execution_s: float,
        allocations: Mapping[ResourceKind, float],
        usages: Optional[Mapping[ResourceKind, float]] = None,
        init_s: float = 0.0,
        instance_s: Optional[float] = None,
        cpu_time_s: float = 0.0,
    ) -> Dict[ResourceKind, float]:
        """Compute the billable resource quantities (resource-unit-seconds) per kind.

        For allocation-billed resources the quantity is
        ``ceil(alloc / G_r) * G_r * billable_time``; for usage-billed resources
        it is the rounded consumption.  Quantities of the same kind coming from
        both groups are summed (no current platform does that, but the model
        allows it).
        """
        rows = self.compile(allocations, include_invocation_fee=False)
        return billable_quantities(
            rows(self.billable_seconds(execution_s, init_s, instance_s, cpu_time_s), usages or {})
        )

    def invoice(
        self,
        execution_s: float,
        allocations: Mapping[ResourceKind, float],
        usages: Optional[Mapping[ResourceKind, float]] = None,
        init_s: float = 0.0,
        instance_s: Optional[float] = None,
        cpu_time_s: float = 0.0,
        include_invocation_fee: bool = True,
    ) -> Invoice:
        """Produce a full invoice for one invocation.

        ``include_invocation_fee`` can be disabled to model instance-based
        billing where the fixed per-request fee usually does not apply.
        """
        rows = self.compile(allocations, include_invocation_fee)
        return Invoice.from_rows(
            self.platform,
            rows(self.billable_seconds(execution_s, init_s, instance_s, cpu_time_s), usages or {}),
        )

    # ------------------------------------------------------------------
    # Derived models: zone-aware pricing and the rounding-free twin
    # ------------------------------------------------------------------

    def with_price_multiplier(self, multiplier: float) -> "BillingModel":
        """This model with every resource unit price scaled by ``multiplier``.

        The basis of zone-aware invoicing: a heterogeneous fleet's price
        classes map to multipliers on the platform's list prices (a premium
        zone bills the same billable quantities at a higher rate).  The
        per-invocation fee is *not* scaled -- it pays for the control plane,
        which is zone-independent.  ``multiplier == 1.0`` returns ``self``
        unchanged, preserving float-exact behaviour for single-zone fleets.
        """
        if multiplier < 0:
            raise ValueError("price multiplier must be >= 0")
        if multiplier == 1.0:
            return self
        return self._replace_resources(lambda r: {"unit_price": r.unit_price * multiplier})

    def without_rounding(self) -> "BillingModel":
        """This model with every time and resource granularity and the minimum cutoff zeroed.

        Its compiled rows bill raw amounts over raw billable time (the §5
        cost ladder's rounding-free rungs): :func:`round_up` and
        :func:`apply_minimum` return their input unchanged at granularity 0.
        """
        return self._replace_resources(
            lambda r: {"granularity": 0.0}, time_granularity_s=0.0, minimum_time_s=0.0
        )

    def _replace_resources(self, update: Callable[..., dict], **changes) -> "BillingModel":
        """A copy with ``update(resource)``'s fields replaced on every resource."""
        return dataclasses.replace(
            self,
            allocation_resources=tuple(
                dataclasses.replace(r, **update(r)) for r in self.allocation_resources
            ),
            usage_resources=tuple(dataclasses.replace(r, **update(r)) for r in self.usage_resources),
            **changes,
        )

    # ------------------------------------------------------------------
    # Introspection helpers used by the catalog / Table 1 bench
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """A flat description of the model, one row of the paper's Table 1."""
        return {
            "platform": self.platform,
            "billable_time": self.billable_time.value,
            "time_granularity_ms": self.time_granularity_s * 1e3,
            "minimum_time_ms": self.minimum_time_s * 1e3,
            "allocation_resources": [r.kind.value for r in self.allocation_resources],
            "usage_resources": [r.kind.value for r in self.usage_resources],
            "invocation_fee_usd": self.invocation_fee,
            "cpu_embedded_in_memory": self.cpu_embedded_in_memory,
            "notes": self.notes,
        }
