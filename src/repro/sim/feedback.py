"""The execution-feedback layer: cross-layer state coupling for co-simulations.

PRs 1-3 put every simulator on one kernel, but the layers still shared a
*clock*, not *state*: CPU throttling computed by :mod:`repro.sched` never
stretched request service times in :mod:`repro.platform`, and admission
queueing/rejection in :mod:`repro.cluster` never delayed sandbox readiness or
failed requests.  This module closes that loop with two mechanisms:

- **The service rate** (:class:`PublishedRate`): the CPU-bandwidth scheduler
  publishes its per-period effective-bandwidth factor into the channel's one
  rate slot.  Consumers (the platform simulator) read it at event-schedule
  time and stretch busy times accordingly.  The factor is piecewise-constant
  between the events that re-read it, so resolution is deterministic: the
  same seed replays the same stretched timeline.
- **Readiness gates**: the channel subscribes to the fleet's admission-outcome
  events (:class:`~repro.sim.events.SandboxQueued` /
  :class:`~repro.sim.events.SandboxAdmitted` /
  :class:`~repro.sim.events.SandboxRejected`).  The fleet decides inside the
  cold-start publish, and the platform simulator takes that decision right
  after it (:meth:`FeedbackChannel.take_admission`), so the channel holds
  it for no longer than the publish.  A rejected cold start fails its
  request; a queued one gates its readiness and is called back when the
  fleet admits it, so admission queueing defers sandbox readiness instead
  of being invisible to the serving layer.  The stock fleet never rejects
  a sandbox it queued, so a rejection of a gated sandbox is an error.

The channel is deliberately passive: it never schedules kernel events itself.
Every effect happens inside an existing event's handler (publish, gate
callback, or a consumer reading :meth:`FeedbackChannel.service_rate`), which
keeps the shared kernel's event order -- and therefore determinism --
unchanged.  With ``feedback="off"`` (the default for every entry point) each
simulator holds an unattached channel: an empty rate slot (rate exactly
``1.0``) and no admission outcomes, so the outputs are the pre-feedback ones
byte-for-byte.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.events import (
    EventBus,
    SandboxAdmitted,
    SandboxQueued,
    SandboxRejected,
)

__all__ = [
    "FEEDBACK_MODES",
    "AdmissionState",
    "FeedbackChannel",
    "PublishedRate",
]

#: The values of a simulator's ``feedback`` switch.
FEEDBACK_MODES: Tuple[str, ...] = ("off", "on")

#: Floor of the service rate (see :meth:`FeedbackChannel.service_rate`).
MIN_SERVICE_RATE = 0.01


class PublishedRate:
    """A piecewise-constant rate factor a producer pushes updates into.

    The CPU-bandwidth scheduler cannot be *pulled* for a factor (computing it
    requires closing an accounting interval), so it publishes one at each
    bandwidth-period boundary instead.  ``service_rate`` returns the most
    recently published value: the fraction of nominal execution speed, so
    ``0.5`` stretches busy times by 2x.  The full history is kept for
    introspection and tests (it is tiny: one entry per period).
    """

    def __init__(self) -> None:
        self._rate = 1.0
        #: (time published, rate) history, in publish order.
        self.history: List[Tuple[float, float]] = []

    def publish(self, now_s: float, rate: float) -> None:
        """Set the current rate (clamped to (0, 1]; zero is floored, see below).

        A producer measuring "no CPU delivered at all this interval" must not
        stall consumers forever (a rate of exactly zero would schedule
        completions at infinity), so published rates are floored at 1e-3.
        """
        self._rate = min(max(float(rate), 1e-3), 1.0)
        self.history.append((now_s, self._rate))

    def service_rate(self) -> float:
        return self._rate


class AdmissionState(str, enum.Enum):
    """What the fleet decided about one cold-started sandbox."""

    ADMITTED = "admitted"
    QUEUED = "queued"
    REJECTED = "rejected"


class FeedbackChannel:
    """Shared mailbox between simulators: the service rate and readiness gates.

    One channel serves one co-simulation (one shared kernel + bus).  The
    scheduler puts its :class:`PublishedRate` in the rate slot with
    :meth:`set_rate`; consumers read it with :meth:`service_rate`.  Attaching
    the channel to the co-simulation bus (:meth:`attach`) makes it hand fleet
    admission outcomes to the platform simulator, which gates sandbox
    readiness on them.
    """

    def __init__(self) -> None:
        #: the published slowdown; ``None`` runs at full speed.
        self._rate: Optional[PublishedRate] = None
        #: sandbox -> the fleet's decision, until the platform takes it.
        self._admission: Dict[str, AdmissionState] = {}
        #: queued sandbox -> one-shot callback fired when the fleet admits it.
        self._gates: Dict[str, Callable[[SandboxAdmitted], None]] = {}

    # ------------------------------------------------------------------
    # Service-time side
    # ------------------------------------------------------------------

    def set_rate(self, rate: PublishedRate) -> PublishedRate:
        """Fill (or replace) the rate slot with ``rate``."""
        self._rate = rate
        return rate

    def service_rate(self) -> float:
        """The execution-rate factor now.

        ``1.0`` while the slot is empty; otherwise the published rate clamped
        to ``[MIN_SERVICE_RATE, 1]``, so a pathological producer can neither
        stall the simulation nor speed it up.
        """
        if self._rate is None:
            # Platforms re-read the rate at every admit and completion.
            return 1.0
        return min(max(self._rate.service_rate(), MIN_SERVICE_RATE), 1.0)

    # ------------------------------------------------------------------
    # Admission side
    # ------------------------------------------------------------------

    def attach(self, bus: EventBus) -> "FeedbackChannel":
        """Track fleet admission outcomes published on ``bus``."""
        bus.subscribe(SandboxQueued, self._on_queued)
        bus.subscribe(SandboxAdmitted, self._on_admitted)
        bus.subscribe(SandboxRejected, self._on_rejected)
        return self

    def _on_queued(self, event: SandboxQueued) -> None:
        self._admission[event.sandbox_name] = AdmissionState.QUEUED

    def _on_admitted(self, event: SandboxAdmitted) -> None:
        callback = self._gates.pop(event.sandbox_name, None)
        if callback is None:
            self._admission[event.sandbox_name] = AdmissionState.ADMITTED
        else:
            callback(event)

    def _on_rejected(self, event: SandboxRejected) -> None:
        if event.sandbox_name in self._gates:
            raise RuntimeError(
                f"sandbox {event.sandbox_name!r} was rejected after it was queued; "
                "a fleet decides rejection at admission time only"
            )
        self._admission[event.sandbox_name] = AdmissionState.REJECTED

    def take_admission(self, sandbox_name: str) -> Optional[AdmissionState]:
        """Hand over (and drop) the fleet's decision for a cold-started sandbox.

        ``None`` means no admission-publishing fleet is attached (a standalone
        platform simulation); callers should treat it as admitted.
        """
        return self._admission.pop(sandbox_name, None)

    def gate_readiness(self, sandbox_name: str, callback: Callable[[SandboxAdmitted], None]) -> None:
        """Call ``callback`` (once) when the fleet admits the queued sandbox.

        The callback receives the :class:`SandboxAdmitted` event and runs
        synchronously inside its bus publish -- i.e. inside an existing
        kernel event, keeping event order deterministic.
        """
        self._gates[sandbox_name] = callback
