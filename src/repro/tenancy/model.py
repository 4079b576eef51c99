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

:func:`resolve_tenants` is the sweep-grid adapter, following the exact
``resolve_retry`` contract: the mode is ``None`` when the ``tenants`` param
is absent (rows stay byte-identical to pre-tenancy output -- no column at
all), ``"off"`` for an explicit off-cell, or the tenant count for active
cells (tenant configs are then built from the point's ``tenant_*`` params).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

__all__ = ["TenantConfig", "resolve_tenants"]

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


def resolve_tenants(
    params: Mapping[str, object],
) -> Tuple[Optional[Union[int, str]], Optional[List[TenantConfig]]]:
    """One sweep grid point's (tenants mode, tenant configs) pair.

    Read by the one cluster scenario builder,
    :func:`repro.analysis.scenario.run_cluster_scenario`.  The mode is ``None`` when the
    ``tenants`` param is absent -- deliberately distinct from ``"off"``, so
    pre-tenancy grids keep producing byte-identical rows (no ``tenants``
    column at all).  An integer count ``N >= 1`` builds ``N`` identical
    tenants named ``tenant-00 .. tenant-{N-1}`` from the point's optional
    ``tenant_*`` params: ``tenant_credit_capacity`` (default 50),
    ``tenant_credit_refill_per_s`` (default 2), ``tenant_request_cost``
    (default 1), ``tenant_on_exhausted`` (default ``deny``),
    ``tenant_max_queued``, ``tenant_slo_latency_s``.
    """
    mode = params["tenants"] if "tenants" in params else None
    if mode is None:
        return None, None
    if str(mode) == "off":
        return "off", None
    count = int(mode)  # type: ignore[arg-type]
    if count < 1:
        raise ValueError(f"tenants must be >= 1 or 'off', got {mode!r}")
    slo = params.get("tenant_slo_latency_s")
    max_queued = params.get("tenant_max_queued")
    configs = [
        TenantConfig(
            name=f"tenant-{index:02d}",
            credit_capacity=float(params.get("tenant_credit_capacity", 50.0)),  # type: ignore[arg-type]
            credit_refill_per_s=float(params.get("tenant_credit_refill_per_s", 2.0)),  # type: ignore[arg-type]
            request_cost=float(params.get("tenant_request_cost", 1.0)),  # type: ignore[arg-type]
            on_exhausted=str(params.get("tenant_on_exhausted", "deny")),
            max_queued=int(max_queued) if max_queued is not None else None,  # type: ignore[arg-type]
            slo_latency_s=float(slo) if slo is not None else None,  # type: ignore[arg-type]
        )
        for index in range(count)
    ]
    return count, configs
