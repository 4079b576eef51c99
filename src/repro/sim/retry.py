"""The client retry loop: failed requests come back and re-load the fleet.

PR 4 made admission rejections *visible* -- a rejected cold start fails its
pending request as a typed ``FailedRequest`` -- but the failure was terminal:
the request vanished from the simulated system.  Real clients do not vanish;
they retry with backoff, and those retries are new load the fleet must absorb
while it is, by construction, already saturated (it just rejected them).
Backpressure sweeps that drop failed requests therefore *under-report* the
load amplification a capacity-bound cluster actually experiences.

This module closes that last loop:

- :class:`RetryPolicy` is the client-side contract: a maximum attempt count,
  exponential backoff with seed-derived jitter (drawn from a
  :func:`repro.sim.rng.named_generator` stream per function, so retry timing
  depends only on the root seed and the function's own failure sequence), and
  an optional per-function retry *budget* -- the circuit-breaker pattern of
  production clients (give up early once a function has burnt its budget,
  instead of retrying a dying dependency forever).
- :class:`RetryLoop` is the bus subscriber that executes the policy: it
  catches :class:`~repro.sim.events.RequestFailed` events on the shared
  co-simulation bus and re-injects each non-terminal failure as a *fresh
  arrival* on the owning simulator's kernel after the backoff delay.  The
  re-injected arrival takes the exact same path as an organic one -- routing,
  cold start, fleet admission gating, possibly another rejection -- so retry
  load is subject to the same backpressure that created it.  Attempt count
  and cumulative backoff ride on the request: completed attempts surface them
  in :class:`~repro.platform.metrics.RequestOutcome` and terminal failures
  carry a ``gave_up`` flag.

Determinism: the loop never schedules anything outside an existing event's
bus publish, every backoff draw comes from a named per-function stream
consumed in kernel-event order, and with ``retry=None`` (every entry point's
default) no loop exists and simulators take byte-identical pre-retry paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.sim.events import EventBus, RequestFailed, RetryScheduled
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - typing only; sim does not import platform
    from repro.platform.metrics import FailedRequest

__all__ = ["RetryPolicy", "RetryLoop", "RetryInjector", "resolve_retry"]


def resolve_retry(
    params: Mapping[str, object],
) -> Tuple[Optional[str], Optional["RetryPolicy"]]:
    """One sweep grid point's (retry mode, policy) pair.

    Read by the one cluster scenario builder,
    :func:`repro.analysis.scenario.run_cluster_scenario`.  The mode is ``None`` when the ``retry`` param
    is absent -- deliberately distinct from ``"off"``, so pre-retry grids
    keep producing byte-identical rows (no ``retry`` column at all); the
    policy is non-``None`` only for ``"on"`` (built from the point's
    ``retry_*`` params via :meth:`RetryPolicy.from_params`).
    """
    mode = str(params["retry"]) if "retry" in params else None
    if mode not in (None, "off", "on"):
        raise ValueError(f"retry must be 'off' or 'on', got {mode!r}")
    return mode, (RetryPolicy.from_params(params) if mode == "on" else None)


@runtime_checkable
class RetryInjector(Protocol):
    """Anything a :class:`RetryLoop` can re-inject an arrival into.

    The loop hands over the backoff delay and the failed record; the
    injector derives the next attempt from it.  Implemented by
    :class:`repro.platform.invoker.PlatformSimulator`; kept as a protocol so
    the sim layer does not import the platform layer.
    """

    def inject_retry(self, delay_s: float, failed: "FailedRequest") -> None:
        ...


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries a failed request.

    Attributes:
        max_attempts: total attempts per request, the first one included
            (``1`` disables retrying: every failure is terminal).
        base_backoff_s: delay before the first retry.
        backoff_multiplier: exponential growth factor per subsequent retry.
        max_backoff_s: cap on the un-jittered backoff delay.
        jitter: jitter fraction ``j >= 0``: each delay is scaled by a factor
            drawn uniformly from ``[1, 1 + j]`` (seed-derived; ``0`` disables
            the draw entirely, making backoff fully deterministic).
        retry_budget: optional per-function cap on the *total* number of
            retries the loop will schedule for that function; once spent,
            further failures of the function give up immediately.
        deadline_s: optional per-request retry deadline: once the elapsed
            time since the *first* attempt's arrival reaches it, a failure
            is terminal -- the load-shedding client of the tenancy layer.
            Checked at failure time (never after the backoff draw), so the
            publisher's ``gave_up`` stamp and the loop's action always
            agree.  ``None`` (the default) retries regardless of elapsed
            time -- the pre-deadline behaviour.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.5
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 30.0
    jitter: float = 0.1
    retry_budget: Optional[int] = None
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_s < 0:
            raise ValueError("base_backoff_s must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.max_backoff_s < self.base_backoff_s:
            raise ValueError("max_backoff_s must be >= base_backoff_s")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0 (or None for unlimited)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 (or None for no deadline)")

    @classmethod
    def from_params(cls, params: Mapping[str, object]) -> "RetryPolicy":
        """Build a policy from sweep-grid params (``retry_*`` keys, all optional).

        Used by the analysis sweep runners so grid points can tune the client
        behaviour (``retry_max_attempts``, ``retry_base_backoff_s``,
        ``retry_backoff_multiplier``, ``retry_max_backoff_s``,
        ``retry_jitter``, ``retry_budget``, ``retry_deadline_s``) without
        each runner re-spelling the defaults.
        """
        budget = params.get("retry_budget")
        deadline = params.get("retry_deadline_s")
        return cls(
            max_attempts=int(params.get("retry_max_attempts", 3)),  # type: ignore[arg-type]
            base_backoff_s=float(params.get("retry_base_backoff_s", 0.5)),  # type: ignore[arg-type]
            backoff_multiplier=float(params.get("retry_backoff_multiplier", 2.0)),  # type: ignore[arg-type]
            max_backoff_s=float(params.get("retry_max_backoff_s", 30.0)),  # type: ignore[arg-type]
            jitter=float(params.get("retry_jitter", 0.1)),  # type: ignore[arg-type]
            retry_budget=int(budget) if budget is not None else None,  # type: ignore[arg-type]
            deadline_s=float(deadline) if deadline is not None else None,  # type: ignore[arg-type]
        )

    def backoff_s(self, failed_attempt: int, rng: np.random.Generator) -> float:
        """The delay before re-injecting after attempt ``failed_attempt`` failed.

        Exponential in the attempt index (``base * multiplier**(k-1)``),
        capped at ``max_backoff_s``, then jittered multiplicatively.  The
        jitter draw is skipped entirely at ``jitter == 0`` so a jitter-free
        policy consumes no randomness.
        """
        if failed_attempt < 1:
            raise ValueError("failed_attempt is 1-based")
        delay = min(
            self.base_backoff_s * self.backoff_multiplier ** (failed_attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


class RetryLoop:
    """Executes a :class:`RetryPolicy` over a co-simulation's failure events.

    One loop serves one co-simulation (one shared bus).  The host registers
    each platform simulator under its function name (:meth:`register`) and
    attaches the loop to the shared bus (:meth:`attach`); from then on every
    non-terminal :class:`~repro.sim.events.RequestFailed` is re-injected into
    its owning simulator as a fresh arrival ``backoff`` seconds later.

    The terminal/non-terminal split is decided *by the publisher*: the
    platform simulator consults :meth:`will_retry` while building the
    ``FailedRequest`` record, so the ``gave_up`` flag metrics collectors see
    (they run before this subscriber) agrees with what the loop then does.
    Both sides observe the same state because bus dispatch is synchronous:
    nothing can spend budget between the publisher's query and this
    subscriber's re-injection of the very same event.
    """

    def __init__(self, policy: RetryPolicy, seed: int = 0) -> None:
        self.policy = policy
        self._streams = RngStreams(seed)
        self._simulators: Dict[str, RetryInjector] = {}
        self._budget_spent: Dict[str, int] = {}
        self._bus: Optional[EventBus] = None
        #: retries the loop re-injected (scheduled; late ones may fall beyond
        #: the run horizon and never fire as arrivals).
        self.retries_scheduled = 0
        #: terminal failures observed (attempts exhausted or budget spent).
        self.gave_up = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, bus: EventBus) -> "RetryLoop":
        """Catch ``RequestFailed`` events published on ``bus``."""
        self._bus = bus
        bus.subscribe(RequestFailed, self._on_failed)
        return self

    def register_metrics(self, registry) -> "RetryLoop":
        """Expose the loop's live counters as observability gauges.

        Pure reads: the gauges report the counters the loop maintains anyway,
        so sampling them cannot perturb retry behaviour.
        """
        registry.gauge("retries_scheduled_total", fn=lambda: float(self.retries_scheduled))
        registry.gauge("retry_gave_up_total", fn=lambda: float(self.gave_up))
        return self

    def register(self, name: str, simulator: RetryInjector) -> None:
        """Own re-injection for requests of the simulator named ``name``.

        ``name`` must match the simulator's id prefix (request ids look like
        ``<name>/req-0000042``); failures from unregistered simulators are
        ignored.
        """
        self._simulators[name] = simulator

    # ------------------------------------------------------------------
    # Policy queries (used by the publisher to stamp ``gave_up``)
    # ------------------------------------------------------------------

    def budget_remaining(self, function: str) -> Optional[int]:
        """Retries the function may still spend (``None`` = unlimited)."""
        if self.policy.retry_budget is None:
            return None
        return self.policy.retry_budget - self._budget_spent.get(function, 0)

    def budget_spent(self, function: str) -> int:
        """Retries already charged against the function's budget."""
        return self._budget_spent.get(function, 0)

    def will_retry(self, function: str, attempts: int, elapsed_s: float = 0.0) -> bool:
        """Whether a failure of attempt ``attempts`` would be re-injected.

        ``elapsed_s`` is the time since the logical request's first attempt
        arrived; under a :attr:`RetryPolicy.deadline_s` a failure at or past
        the deadline is terminal (the client sheds the load).
        """
        if attempts >= self.policy.max_attempts:
            return False
        if self.policy.deadline_s is not None and elapsed_s >= self.policy.deadline_s:
            return False
        remaining = self.budget_remaining(function)
        return remaining is None or remaining > 0

    # ------------------------------------------------------------------
    # The subscriber
    # ------------------------------------------------------------------

    @staticmethod
    def _function_of(request_id: str) -> str:
        """The simulator name prefix of a namespaced request id."""
        return request_id.split("/", 1)[0] if "/" in request_id else ""

    def _on_failed(self, event: RequestFailed) -> None:
        failure: FailedRequest = event.outcome
        if failure.gave_up:
            self.gave_up += 1
            return
        name = self._function_of(failure.request_id)
        simulator = self._simulators.get(name)
        if simulator is None:
            return  # a failure this loop was never asked to own
        attempts = failure.attempts
        if not self.will_retry(name, attempts, failure.failed_s - failure.origin_s):
            # Defensive: a publisher that did not consult will_retry() (so
            # gave_up stayed False) must not push the loop past its policy.
            return
        delay = self.policy.backoff_s(attempts, self._streams.stream("retry", name))
        # Honour the fleet's retry-after hint: back off at least that long,
        # so clients shed load from a cluster that told them it is saturated.
        if failure.retry_after_s > delay:
            delay = failure.retry_after_s
        self._budget_spent[name] = self._budget_spent.get(name, 0) + 1
        self.retries_scheduled += 1
        simulator.inject_retry(delay, failure)
        if self._bus is not None:
            # Trace/telemetry marker for the re-injection decision.  Published
            # unconditionally once attached (failures are rare); subscribers
            # only exist when an observability layer is listening, and the
            # event itself mutates nothing, so un-observed runs are unchanged.
            self._bus.publish(
                RetryScheduled(
                    event.time_s,
                    failure.request_id,
                    function_name=name,
                    next_attempt=attempts + 1,
                    delay_s=delay,
                )
            )
