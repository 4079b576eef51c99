"""Per-tenant fairness and SLO metrics over a multi-tenant co-simulation.

Answers the control-plane questions the per-function summaries cannot: who
got starved under backpressure and retry amplification, who met their latency
SLO, and how the bill splits across tenants.  Built once per run by the
cluster host (:meth:`repro.cluster.cosim.ClusterSimulator.run`) from the
per-simulator metrics, the admission controller's counters and the cost
meter's per-tenant invoice buckets.

Definitions:

- **SLO attainment**: fraction of completed requests whose *client-perceived*
  latency (completion minus the first attempt's arrival, so failed attempts
  and client backoff count) met the tenant's
  :attr:`~repro.tenancy.model.TenantConfig.slo_latency_s`.  Tenants without
  a target attain trivially: every completion counts.
- **Goodput**: completions that met the SLO -- the work the tenant actually
  paid for usefully; ``billed_usd / goodput`` is the unit price of useful
  work (retry amplification and SLO misses inflate it).
- **Jain's fairness index** over weight-normalised goodput
  ``x_i = goodput_i / weight_i``: ``(sum x)^2 / (n * sum x^2)``, 1.0 when
  every tenant gets goodput proportional to its weight, ``1/n`` when one
  tenant monopolises the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.numeric import fold

__all__ = ["TenantReport", "TenancyReport", "jain_fairness"]


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` over ``values``.

    1.0 for a perfectly even allocation (including the all-zero one: nobody
    is being favoured when nobody gets anything), down to ``1/n`` when one
    participant takes everything.  ``nan`` for an empty sequence.
    """
    xs = [float(v) for v in values]
    if not xs:
        return float("nan")
    total = fold(xs)
    squares = fold(x * x for x in xs)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(xs) * squares)


@dataclass
class TenantReport:
    """One tenant's aggregate outcome over a run."""

    name: str
    #: Deployments (platform simulators) the tenant owns.
    functions: int
    arrivals: int
    completed: int
    failed: int
    #: Credit denials (terminal, before any capacity was burned).
    denied: int
    #: Ingress/cold-start parked plus credit-queue parked at horizon.
    pending: int
    in_flight: int
    #: The SLO target the attainment below was judged against (``None`` =
    #: no target: every completion attained).
    slo_target_s: Optional[float]
    #: Completions that met the target (== ``completed`` without a target).
    slo_attained: int
    billed_usd: float
    credits_spent: float
    weight: float = 1.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of completions meeting the SLO (``nan`` with none completed)."""
        if not self.completed:
            return float("nan")
        return self.slo_attained / self.completed

    @property
    def goodput(self) -> int:
        """Completions that met the SLO: the tenant's useful work."""
        return self.slo_attained

    @property
    def billed_per_goodput_usd(self) -> float:
        """Unit price of useful work (``nan`` when there was none)."""
        if not self.goodput:
            return float("nan")
        return self.billed_usd / self.goodput

    def conserves(self) -> bool:
        """The per-tenant conservation law at this snapshot."""
        return self.arrivals == (
            self.completed + self.failed + self.denied + self.pending + self.in_flight
        )


@dataclass
class TenancyReport:
    """All tenants' reports plus the cross-tenant fairness aggregates."""

    tenants: List[TenantReport]

    def by_name(self, name: str) -> TenantReport:
        for report in self.tenants:
            if report.name == name:
                return report
        raise KeyError(name)

    @property
    def total_denied(self) -> int:
        return sum(t.denied for t in self.tenants)

    def fairness(self) -> float:
        """Jain's index over weight-normalised goodput across tenants."""
        return jain_fairness([t.goodput / t.weight for t in self.tenants])

    def aggregate_slo_attainment(self) -> float:
        """Attained completions over all completions (``nan`` with none)."""
        completed = sum(t.completed for t in self.tenants)
        if not completed:
            return float("nan")
        return sum(t.slo_attained for t in self.tenants) / completed

    def summary_columns(self) -> Dict[str, object]:
        """The sweep/summary columns tenancy-active rows gain.

        Aggregates first, then per-tenant columns keyed
        ``tenant:<name>:<metric>`` in configuration order -- stable keys, so
        CSV headers are deterministic for a fixed tenant population.
        """
        columns: Dict[str, object] = {
            "num_tenants": float(len(self.tenants)),
            "credit_denied_requests": float(self.total_denied),
            "slo_attainment": self.aggregate_slo_attainment(),
            "jain_fairness": self.fairness(),
        }
        for tenant in self.tenants:
            prefix = f"tenant:{tenant.name}:"
            columns[prefix + "arrivals"] = float(tenant.arrivals)
            columns[prefix + "completed"] = float(tenant.completed)
            columns[prefix + "denied"] = float(tenant.denied)
            columns[prefix + "goodput"] = float(tenant.goodput)
            columns[prefix + "slo_attainment"] = tenant.slo_attainment
            columns[prefix + "billed_usd"] = tenant.billed_usd
            columns[prefix + "credits_spent"] = tenant.credits_spent
        return columns
