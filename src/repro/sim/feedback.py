"""The execution-feedback layer: cross-layer state coupling for co-simulations.

PRs 1-3 put every simulator on one kernel, but the layers still shared a
*clock*, not *state*: CPU throttling computed by :mod:`repro.sched` never
stretched request service times in :mod:`repro.platform`, and admission
queueing/rejection in :mod:`repro.cluster` never delayed sandbox readiness or
failed requests.  This module closes that loop with two mechanisms:

- **Service-time modifiers** (:class:`ServiceTimeModifier`): components that
  know about execution slowdown -- the CPU-bandwidth scheduler publishing its
  per-period effective-bandwidth factor -- register a modifier on the
  channel.  Consumers (the platform simulator) read the *combined* rate at
  event-schedule time and stretch busy times accordingly.  Factors are
  piecewise-constant between the events that re-read them, so resolution is
  deterministic: the same seed replays the same stretched timeline.
- **Readiness gates**: the channel subscribes to the fleet's admission-outcome
  events (:class:`~repro.sim.events.SandboxQueued` /
  :class:`~repro.sim.events.SandboxAdmitted` /
  :class:`~repro.sim.events.SandboxRejected`) and lets the platform simulator
  ask, synchronously after publishing a cold start, what the fleet decided --
  and be called back when a queued sandbox is finally admitted (or rejected),
  so admission queueing defers sandbox readiness and rejection fails the
  pending request instead of both being invisible to the serving layer.

The channel is deliberately passive: it never schedules kernel events itself.
Every effect happens inside an existing event's handler (publish, gate
callback, or a consumer reading :meth:`FeedbackChannel.service_rate`), which
keeps the shared kernel's event order -- and therefore determinism --
unchanged.  With ``feedback="off"`` (the default for every entry point) each
simulator holds an unattached channel: no modifiers (rate exactly ``1.0``),
no admission outcomes and an empty queue, so the outputs are the
pre-feedback ones byte-for-byte.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

from repro.sim.events import (
    EventBus,
    SandboxAdmitted,
    SandboxQueued,
    SandboxRejected,
    SimEvent,
)

__all__ = [
    "FEEDBACK_MODES",
    "AdmissionState",
    "FeedbackChannel",
    "PublishedRate",
    "ServiceTimeModifier",
]

#: The values of a simulator's ``feedback`` switch.
FEEDBACK_MODES: Tuple[str, ...] = ("off", "on")

#: Floor of the combined service rate (see :meth:`FeedbackChannel.service_rate`).
MIN_SERVICE_RATE = 0.01


@runtime_checkable
class ServiceTimeModifier(Protocol):
    """Anything that can slow execution down, as a multiplicative rate factor.

    ``service_rate(now_s)`` returns the fraction of nominal execution speed
    available at ``now_s``: ``1.0`` means full speed, ``0.5`` means busy times
    stretch by 2x.  Implementations must be deterministic functions of
    simulation state (never wall clock or unseeded randomness).
    """

    def service_rate(self, now_s: float) -> float:
        ...


class PublishedRate:
    """A piecewise-constant rate factor a producer pushes updates into.

    The CPU-bandwidth scheduler cannot be *pulled* for a factor (computing it
    requires closing an accounting interval), so it publishes one at each
    bandwidth-period boundary instead.  ``service_rate`` returns the most
    recently published value; the full history is kept for introspection and
    tests (it is tiny: one entry per period).
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

    def service_rate(self, now_s: float) -> float:
        return self._rate


class AdmissionState(str, enum.Enum):
    """What the fleet decided about one cold-started sandbox."""

    ADMITTED = "admitted"
    QUEUED = "queued"
    REJECTED = "rejected"


class FeedbackChannel:
    """Shared mailbox between simulators: slowdown factors and readiness gates.

    One channel serves one co-simulation (one shared kernel + bus).  Producers
    register :class:`ServiceTimeModifier` objects under string keys; consumers
    read the combined rate with :meth:`service_rate`.  Attaching the channel
    to the co-simulation bus (:meth:`attach`) makes it track fleet admission
    outcomes so the platform simulator can gate sandbox readiness on them.
    """

    def __init__(self) -> None:
        #: key -> modifier, in registration order (deterministic product).
        self._modifiers: Dict[str, ServiceTimeModifier] = {}
        self._admission: Dict[str, AdmissionState] = {}
        #: sandboxes currently waiting in the fleet's admission queue.
        self._queued: List[str] = []
        #: sandbox -> one-shot callback fired when its admission resolves.
        self._gates: Dict[str, Callable[[SimEvent], None]] = {}

    # ------------------------------------------------------------------
    # Service-time side
    # ------------------------------------------------------------------

    def set_modifier(self, key: str, modifier: ServiceTimeModifier) -> ServiceTimeModifier:
        """Register (or replace) the modifier published under ``key``."""
        self._modifiers[key] = modifier
        return modifier

    def service_rate(self, now_s: float) -> float:
        """The combined execution-rate factor at ``now_s``.

        Factors compose multiplicatively (two independent 50% slowdowns give
        25% of nominal speed) and the product is clamped to
        ``[MIN_SERVICE_RATE, 1]`` so a pathological producer can neither
        stall the simulation nor speed it up.  With no modifiers registered
        the rate is exactly ``1.0``.
        """
        if not self._modifiers:
            # Platforms re-read the rate at every admit and completion.
            return 1.0
        rate = 1.0
        for modifier in self._modifiers.values():
            rate *= modifier.service_rate(now_s)
        return min(max(rate, MIN_SERVICE_RATE), 1.0)

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
        self._queued.append(event.sandbox_name)

    def _on_admitted(self, event: SandboxAdmitted) -> None:
        self._admission[event.sandbox_name] = AdmissionState.ADMITTED
        if event.sandbox_name in self._queued:
            self._queued.remove(event.sandbox_name)
        self._resolve_gate(event.sandbox_name, event)

    def _on_rejected(self, event: SandboxRejected) -> None:
        self._admission[event.sandbox_name] = AdmissionState.REJECTED
        if event.sandbox_name in self._queued:
            self._queued.remove(event.sandbox_name)
        self._resolve_gate(event.sandbox_name, event)

    def _resolve_gate(self, sandbox_name: str, event: SimEvent) -> None:
        callback = self._gates.pop(sandbox_name, None)
        if callback is not None:
            callback(event)

    def admission_state(self, sandbox_name: str) -> Optional[AdmissionState]:
        """The fleet's decision for a sandbox, or ``None`` if it never saw one.

        ``None`` means no admission-publishing fleet is attached (a standalone
        platform simulation); callers should treat it as admitted.
        """
        return self._admission.get(sandbox_name)

    def forget(self, sandbox_name: str) -> None:
        """Drop what the channel knows about a discarded sandbox.

        The platform calls this when it discards a terminated sandbox, so the
        channel's state stays bounded by the live sandboxes rather than
        growing with every cold start a long run ever made.
        """
        self._admission.pop(sandbox_name, None)

    def gate_readiness(self, sandbox_name: str, callback: Callable[[SimEvent], None]) -> None:
        """Call ``callback`` (once) when the sandbox's queued admission resolves.

        The callback receives the resolving event (:class:`SandboxAdmitted` or
        :class:`SandboxRejected`) and runs synchronously inside that event's
        bus publish -- i.e. inside an existing kernel event, keeping event
        order deterministic.
        """
        state = self._admission.get(sandbox_name)
        if state is not None and state is not AdmissionState.QUEUED:
            raise ValueError(
                f"sandbox {sandbox_name!r} admission already resolved ({state.value}); "
                "gate it before publishing the cold start or not at all"
            )
        self._gates[sandbox_name] = callback

    def admission_queue_depth(self, prefix: str = "") -> int:
        """Sandboxes currently in the admission queue, optionally by name prefix.

        Co-simulated platform simulators namespace sandbox names as
        ``<function>/sandbox-...``, so a simulator can read *its own* share of
        the fleet's admission queue by passing its id prefix -- the signal the
        queue-aware autoscaler scales on.  Cold starts provoked by retry
        re-injections (:mod:`repro.sim.retry`) queue exactly like organic
        ones, so this depth -- and everything scaling or placing on it
        (queue-aware autoscaling, ``COST_FIT``) -- sees the amplified load
        retrying clients actually offer, not just the first-attempt load.
        """
        if not prefix:
            return len(self._queued)
        return sum(1 for name in self._queued if name.startswith(prefix))
