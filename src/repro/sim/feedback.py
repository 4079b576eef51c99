"""The execution-feedback layer: cross-layer state coupling for co-simulations.

PRs 1-3 put every simulator on one kernel, but the layers still shared a
*clock*, not *state*: CPU throttling computed by :mod:`repro.sched` never
stretched request service times in :mod:`repro.platform`, and admission
queueing/rejection in :mod:`repro.cluster` never delayed sandbox readiness or
failed requests.  Two mechanisms close that loop:

- **The service rate** (:class:`PublishedRate`): the CPU-bandwidth scheduler
  publishes its per-period effective-bandwidth factor into the channel's one
  rate slot.  Consumers (the platform simulator) read it at event-schedule
  time and stretch busy times accordingly.  The factor is piecewise-constant
  between the events that re-read it, so resolution is deterministic: the
  same seed replays the same stretched timeline.
- **Admission outcomes** need no channel: the platform simulator calls the
  fleet (:meth:`repro.cluster.fleet.Fleet.admit`) right after each cold-start
  publish and reads its answer.  A simulator holding a channel acts on it --
  a rejected cold start fails its request, and a queued one hands the fleet
  a wake-up callback that schedules its readiness once the fleet admits it,
  so admission queueing defers sandbox readiness instead of being invisible
  to the serving layer.

The channel is deliberately passive: it never schedules kernel events itself.
Every effect happens inside an existing event's handler (a consumer reading
:meth:`FeedbackChannel.service_rate`), which keeps the shared kernel's event
order -- and therefore determinism -- unchanged.  With ``feedback="off"``
(the default for every entry point) each simulator holds an empty channel
(rate exactly ``1.0``) and ignores the fleet's admission answers, so the
outputs are the pre-feedback ones byte-for-byte.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["FEEDBACK_MODES", "FeedbackChannel", "PublishedRate"]

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


class FeedbackChannel:
    """The service-rate slot the simulators of one co-simulation share.

    The scheduler puts its :class:`PublishedRate` in the slot with
    :meth:`set_rate`; consumers read it with :meth:`service_rate`.
    """

    def __init__(self) -> None:
        #: the published slowdown; ``None`` runs at full speed.
        self._rate: Optional[PublishedRate] = None

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
