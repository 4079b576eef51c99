"""Tenant model: who is calling, what they are entitled to, what they expect.

A :class:`TenantConfig` is the control-plane contract for one tenant of the
co-simulated cluster: a credit entitlement (token-bucket capacity and refill
rate metered per admitted request), the policy applied when the bucket runs
dry (deny the request outright, or park it until credits refill), an optional
latency SLO the fairness metrics judge completions against, and a fairness
weight.  Deployments are tagged with a tenant name
(:attr:`repro.cluster.cosim.FunctionDeployment.tenant`); the
:class:`~repro.tenancy.admission.AdmissionController` holds one
:class:`~repro.tenancy.credits.CreditAccount` per tenant and meters every
arrival of every deployment the tenant owns.

:class:`TenantParams` is the tenants section of a sweep grid point's params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

__all__ = ["TenantConfig", "TenantParams"]

#: Valid values of :attr:`TenantConfig.on_exhausted`.
_EXHAUSTION_POLICIES = ("deny", "queue")


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's admission entitlement and service expectations.

    Attributes:
        name: unique tenant identifier; stamped onto every request record and
            event the tenant's deployments produce.
        credit_capacity: token-bucket capacity in credits.  ``inf`` (the
            default) makes the tenant unmetered: admission always succeeds
            and the run's timings are identical to an untenanted one.
        credit_refill_per_s: bucket refill rate in credits per simulated
            second (lazy refill, clamped at capacity).  The bucket starts
            full.
        request_cost: credits one admission spends.
        on_exhausted: ``"deny"`` fails an unaffordable arrival immediately
            with a typed :class:`~repro.sim.events.RequestDenied` (a
            throttling response -- terminal, never retried); ``"queue"``
            parks it until the bucket refills enough (the wait is visible in
            the request's latency and SLO attainment).
        max_queued: bound on the credit queue under ``on_exhausted="queue"``;
            arrivals beyond it are denied.  ``None`` means unbounded.
        slo_latency_s: client-perceived latency target (completion minus the
            *first* attempt's arrival).  Drives the per-tenant SLO-attainment
            and goodput columns; ``None`` means every completion is goodput.
        weight: fairness weight; Jain's index is computed over
            ``goodput / weight``, so a tenant paying for twice the share is
            expected to get twice the goodput.
    """

    name: str
    credit_capacity: float = math.inf
    credit_refill_per_s: float = 0.0
    request_cost: float = 1.0
    on_exhausted: str = "deny"
    max_queued: Optional[int] = None
    slo_latency_s: Optional[float] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if "/" in self.name or ":" in self.name:
            raise ValueError(f"tenant name must not contain '/' or ':', got {self.name!r}")
        if not self.credit_capacity > 0:
            raise ValueError("credit_capacity must be > 0 (inf for unmetered)")
        if self.credit_refill_per_s < 0:
            raise ValueError("credit_refill_per_s must be >= 0")
        if not self.request_cost > 0:
            raise ValueError("request_cost must be > 0")
        if self.on_exhausted not in _EXHAUSTION_POLICIES:
            raise ValueError(
                f"on_exhausted must be one of {_EXHAUSTION_POLICIES}, got {self.on_exhausted!r}"
            )
        if self.max_queued is not None and self.max_queued < 0:
            raise ValueError("max_queued must be >= 0 (or None for unbounded)")
        if self.slo_latency_s is not None and not self.slo_latency_s > 0:
            raise ValueError("slo_latency_s must be > 0 (or None for no SLO)")
        if not self.weight > 0:
            raise ValueError("weight must be > 0")

    @property
    def unmetered(self) -> bool:
        """Whether admission can never run out of credits."""
        return math.isinf(self.credit_capacity)


@dataclass(frozen=True)
class TenantParams:
    """The tenants section of a cluster grid point's params.

    ``tenants`` is ``None`` when the key is absent -- deliberately distinct
    from ``"off"``, so pre-tenancy grids keep producing byte-identical rows
    (no ``tenants`` column at all).  A count ``N >= 1`` builds ``N``
    identical tenants named ``tenant-00 .. tenant-{N-1}`` from the
    ``tenant_*`` keys.
    """

    tenants: Optional[Union[int, str]] = field(
        default=None, metadata={"choices": ("off",), "min": 1}
    )
    tenant_credit_capacity: float = 50.0
    tenant_credit_refill_per_s: float = 2.0
    tenant_request_cost: float = 1.0
    tenant_on_exhausted: str = field(default="deny", metadata={"choices": _EXHAUSTION_POLICIES})
    tenant_max_queued: Optional[int] = None
    tenant_slo_latency_s: Optional[float] = None

    def configs(self) -> Optional[List[TenantConfig]]:
        """The tenant set, or ``None`` when tenancy is absent or ``"off"``."""
        if not isinstance(self.tenants, int):
            return None
        return [
            TenantConfig(
                name=f"tenant-{index:02d}",
                credit_capacity=self.tenant_credit_capacity,
                credit_refill_per_s=self.tenant_credit_refill_per_s,
                request_cost=self.tenant_request_cost,
                on_exhausted=self.tenant_on_exhausted,
                max_queued=self.tenant_max_queued,
                slo_latency_s=self.tenant_slo_latency_s,
            )
            for index in range(self.tenants)
        ]
