"""Multi-tenant admission control: credits, SLOs, and fairness accounting.

The control plane layered above the closed serving loop (PR 9): tenants own
deployments, a per-tenant token-bucket :class:`~repro.tenancy.credits.CreditAccount`
meters admission *before* fleet capacity is burned
(:class:`~repro.tenancy.admission.AdmissionController`; exhausted buckets
deny -- a typed :class:`~repro.sim.events.RequestDenied` -- or queue, per
tenant policy), and per-tenant SLO attainment, goodput, invoice share and
Jain's fairness index surface in the run summary
(:class:`~repro.tenancy.metrics.TenancyReport`).

Every entry point defaults to *no* tenancy, and with ``tenants=None`` all
simulators take byte-identical pre-tenancy code paths -- the same gating
contract the feedback/retry/observability layers ship under.
"""

from repro.tenancy.admission import AdmissionController, AdmissionDecision
from repro.tenancy.credits import CreditAccount
from repro.tenancy.metrics import TenancyReport, TenantReport, jain_fairness
from repro.tenancy.model import TenantConfig, TenantParams

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CreditAccount",
    "TenancyReport",
    "TenantReport",
    "TenantConfig",
    "TenantParams",
    "jain_fairness",
]
