"""Credit-metered admission control: the multi-tenant gate above the fleet.

The :class:`AdmissionController` sits *before* routing: every arrival of a
registered platform simulator asks it for admission first, and only admitted
requests ever touch sandboxes, the fleet, or the bill.  One controller serves
one co-simulation; it holds a :class:`~repro.tenancy.credits.CreditAccount`
per tenant and a per-tenant FIFO of credit-parked requests.

Decisions, by tenant policy (:attr:`~repro.tenancy.model.TenantConfig.on_exhausted`):

- ``ADMIT`` -- the account covered :data:`REQUEST_COST` (and no earlier request
  of the same tenant is still parked: the credit queue is strictly FIFO).
  The caller routes the request normally.
- ``DENY`` -- the account is dry and the tenant's policy is ``deny``.  The
  caller fails the request with a typed
  :class:`~repro.sim.events.RequestDenied` -- terminal, never retried, no
  capacity burned.
- ``QUEUE`` -- the request parks in the tenant's unbounded credit queue.  The
  controller schedules one ``tenancy:credit_release`` kernel event for the
  instant the refill covers the *head* request, and re-arms it each time it
  fires with work left over -- at most one pending event per tenant, so the
  heap stays bounded.  On release, the owning simulator's
  ``resume_admission`` re-enters routing with the parked attempt record:
  the credit wait is visible in the request's latency (and SLO attainment),
  exactly like any other queueing delay.

Determinism: releases are kernel events ordered by the standard (time, seq)
tie-break; everything else happens synchronously inside the arrival event
that asked.  A tenant whose bucket cannot refill (rate 0) strands its queue
-- those requests stay *pending* and the conservation law still closes.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import Event, SimulationKernel
from repro.tenancy.credits import CreditAccount
from repro.tenancy.model import TenantConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.metrics import Attempt

__all__ = ["REQUEST_COST", "AdmissionController", "AdmissionDecision"]

#: Credits one admission spends.
REQUEST_COST = 1.0


class AdmissionDecision(enum.Enum):
    """What the controller decided about one arrival."""

    ADMIT = "admit"
    DENY = "deny"
    QUEUE = "queue"


class AdmissionController:
    """Per-tenant credit metering over every registered simulator's arrivals."""

    #: Kernel event kind of the deferred credit-release wake-ups.
    EVENT_KIND = "tenancy:credit_release"

    def __init__(self, tenants: Sequence[TenantConfig]) -> None:
        configs = list(tenants)
        if not configs:
            raise ValueError("at least one tenant is required")
        names = [config.name for config in configs]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        self._configs: Dict[str, TenantConfig] = {c.name: c for c in configs}
        self._accounts: Dict[str, CreditAccount] = {
            c.name: CreditAccount(c.credit_capacity, c.credit_refill_per_s) for c in configs
        }
        #: tenant -> FIFO of (owner name, attempt) awaiting credits.
        self._queues: Dict[str, Deque[Tuple[str, "Attempt"]]] = {
            c.name: deque() for c in configs
        }
        self._kernel: Optional[SimulationKernel] = None
        self._tenant_of: Dict[str, str] = {}
        self._resumers: Dict[str, object] = {}
        self._queued_by_owner: Dict[str, int] = {}
        # Live per-tenant counters (read by the tenancy report).
        self.admitted: Dict[str, int] = {c.name: 0 for c in configs}
        self.denied: Dict[str, int] = {c.name: 0 for c in configs}
        self.queued_total: Dict[str, int] = {c.name: 0 for c in configs}
        self.resumed: Dict[str, int] = {c.name: 0 for c in configs}
        self.credits_spent: Dict[str, float] = {c.name: 0.0 for c in configs}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @property
    def tenant_names(self) -> List[str]:
        """Tenant names in configuration order."""
        return list(self._configs)

    def config(self, tenant: str) -> TenantConfig:
        """The configuration of one tenant."""
        return self._configs[tenant]

    def account(self, tenant: str) -> CreditAccount:
        """The live credit account of one tenant (exposed for tests/reports)."""
        return self._accounts[tenant]

    def attach(self, kernel: SimulationKernel) -> "AdmissionController":
        """Register the credit-release handler on the co-simulation kernel."""
        self._kernel = kernel
        kernel.on(self.EVENT_KIND, self._handle_release)
        return self

    def register(self, owner: str, tenant: str, resumer) -> None:
        """Meter the simulator named ``owner`` against ``tenant``'s account.

        ``resumer`` must expose ``resume_admission(attempt)`` -- the
        platform simulator re-enters routing there when a credit-parked
        attempt is released.
        """
        if tenant not in self._configs:
            raise ValueError(f"unknown tenant {tenant!r} (have {list(self._configs)})")
        self._tenant_of[owner] = tenant
        self._resumers[owner] = resumer
        self._queued_by_owner.setdefault(owner, 0)

    # ------------------------------------------------------------------
    # The admission gate
    # ------------------------------------------------------------------

    def admit(self, owner: str, now_s: float, attempt: "Attempt") -> AdmissionDecision:
        """Decide one arrival of ``owner`` at ``now_s``.

        ``attempt`` is held unchanged for ``QUEUE`` decisions and passed back
        to the owner's ``resume_admission`` when credits free up; it is
        ignored for ``ADMIT``/``DENY``.
        """
        tenant = self._tenant_of[owner]
        config = self._configs[tenant]
        account = self._accounts[tenant]
        queue = self._queues[tenant]
        # FIFO: while earlier requests are parked, new ones park behind them
        # even if the balance momentarily covers the cost.
        if not queue and account.try_spend(now_s, REQUEST_COST):
            self.admitted[tenant] += 1
            self.credits_spent[tenant] += REQUEST_COST
            return AdmissionDecision.ADMIT
        if config.on_exhausted == "deny":
            self.denied[tenant] += 1
            return AdmissionDecision.DENY
        was_empty = not queue
        queue.append((owner, attempt))
        self._queued_by_owner[owner] += 1
        self.queued_total[tenant] += 1
        if was_empty:
            self._arm_release(tenant, now_s, account)
        return AdmissionDecision.QUEUE

    def _arm_release(self, tenant: str, now_s: float, account: CreditAccount) -> None:
        """Schedule the tenant's (single) pending credit-release wake-up."""
        wait = account.time_until(now_s, REQUEST_COST)
        if wait == float("inf"):
            # The bucket can never cover the head request: the queue strands
            # (its entries stay pending for conservation purposes).
            return
        assert self._kernel is not None, "attach() the controller before admitting"
        self._kernel.schedule_in(wait, self.EVENT_KIND, {"tenant": tenant})

    def _handle_release(self, event: Event) -> None:
        tenant = event.data["tenant"]
        queue = self._queues[tenant]
        if not queue:
            return
        account = self._accounts[tenant]
        now_s = event.time
        while queue and account.try_spend(now_s, REQUEST_COST):
            owner, attempt = queue.popleft()
            self._queued_by_owner[owner] -= 1
            self.admitted[tenant] += 1
            self.resumed[tenant] += 1
            self.credits_spent[tenant] += REQUEST_COST
            self._resumers[owner].resume_admission(attempt)
        if queue:
            self._arm_release(tenant, now_s, account)

    # ------------------------------------------------------------------
    # Accounting views
    # ------------------------------------------------------------------

    def queued_count(self, owner: str) -> int:
        """Requests of one simulator currently parked in its tenant's credit queue.

        The platform simulator folds this into ``pending_request_count`` so
        credit-parked requests stay inside the conservation law.
        """
        return self._queued_by_owner.get(owner, 0)

    def queue_depth(self, tenant: str) -> int:
        """Requests currently parked in one tenant's credit queue."""
        return len(self._queues[tenant])

    def total_denied(self) -> int:
        """Credit denials across all tenants."""
        return sum(self.denied.values())
