"""The scheduler's service rate: the one state coupling of a closed-loop co-simulation.

The CPU-bandwidth scheduler (:mod:`repro.sched`) publishes its per-period
effective-bandwidth factor into a :class:`PublishedRate`; every platform
simulator holding the same object reads it at event-schedule time and
stretches busy times accordingly, so cgroup throttling reaches request
latency and the durations the cost meter bills.  The factor is
piecewise-constant between the events that re-read it, so resolution is
deterministic: the same seed replays the same stretched timeline.

The rate is deliberately passive: it never schedules kernel events itself.
Every effect happens inside an existing event's handler (a consumer reading
:attr:`PublishedRate.served`), which keeps the shared kernel's event order --
and therefore determinism -- unchanged.  A simulator built without a rate
holds a private one nobody publishes into (served rate exactly ``1.0``).
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["MIN_SERVICE_RATE", "PublishedRate"]

#: Floor of the rate consumers apply (:attr:`PublishedRate.served`).
MIN_SERVICE_RATE = 0.01


class PublishedRate:
    """A piecewise-constant rate factor a producer pushes updates into.

    The CPU-bandwidth scheduler cannot be *pulled* for a factor (computing it
    requires closing an accounting interval), so it publishes one at each
    bandwidth-period boundary instead.  ``rate`` is the most recently
    published value: the fraction of nominal execution speed, so ``0.5``
    stretches busy times by 2x.  The full history is kept for introspection
    and tests (it is tiny: one entry per period).
    """

    def __init__(self) -> None:
        #: The most recently published rate, in ``[1e-3, 1]``.
        self.rate = 1.0
        #: The rate consumers apply: ``rate`` floored at :data:`MIN_SERVICE_RATE`,
        #: so a pathological producer can neither stall the simulation nor
        #: speed it up.
        self.served = 1.0
        #: (time published, rate) history, in publish order.
        self.history: List[Tuple[float, float]] = []

    def publish(self, now_s: float, rate: float) -> None:
        """Set the current rate (clamped to (0, 1]; zero is floored, see below).

        A producer measuring "no CPU delivered at all this interval" must not
        stall consumers forever (a rate of exactly zero would schedule
        completions at infinity), so published rates are floored at 1e-3.
        """
        self.rate = min(max(float(rate), 1e-3), 1.0)
        self.served = max(self.rate, MIN_SERVICE_RATE)
        self.history.append((now_s, self.rate))
