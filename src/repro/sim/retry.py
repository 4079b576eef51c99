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
- :class:`RetryLoop` is the policy's bookkeeping: the platform simulator
  asks it once per failed attempt (:meth:`RetryLoop.next_delay`) and gets
  back either the backoff delay -- budget spent, retry counted -- or
  ``None`` for a terminal failure.  The simulator then re-schedules the
  attempt as a *fresh arrival* on its own kernel after that delay.  The
  re-injected arrival takes the exact same path as an organic one --
  routing, cold start, fleet admission gating, possibly another rejection --
  so retry load is subject to the same backpressure that created it.
  Attempt count and cumulative backoff ride on the request: completed
  attempts surface them in :class:`~repro.platform.metrics.RequestOutcome`
  and terminal failures carry a ``gave_up`` flag.

Determinism: the loop never schedules anything itself, every backoff draw
comes from a named per-function stream consumed in kernel-event order, and
with ``retry=None`` (every entry point's default) no loop exists and
simulators take byte-identical pre-retry paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.sim.rng import RngStreams

__all__ = ["RetryPolicy", "RetryLoop", "resolve_retry"]


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
            Checked at failure time, before any backoff draw.  ``None`` (the
            default) retries regardless of elapsed time -- the pre-deadline
            behaviour.
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
    """Executes a :class:`RetryPolicy`: one decision per failed attempt.

    One loop serves one co-simulation; every platform simulator holding it
    asks :meth:`next_delay` when an attempt fails and uses the answer both
    to stamp the failure's ``gave_up`` flag and to schedule the re-arrival,
    so the two can never disagree.  Budgets and backoff streams are keyed by
    the asking simulator's name.
    """

    def __init__(self, policy: RetryPolicy, seed: int = 0) -> None:
        self.policy = policy
        self._streams = RngStreams(seed)
        self._budget_spent: Dict[str, int] = {}
        #: retries the loop granted (scheduled; late ones may fall beyond the
        #: run horizon and never fire as arrivals).
        self.retries_scheduled = 0
        #: terminal failures (attempts exhausted, deadline passed or budget spent).
        self.gave_up = 0

    def register_metrics(self, registry) -> "RetryLoop":
        """Expose the loop's live counters as observability gauges.

        Pure reads: the gauges report the counters the loop maintains anyway,
        so sampling them cannot perturb retry behaviour.
        """
        registry.gauge("retries_scheduled_total", fn=lambda: float(self.retries_scheduled))
        registry.gauge("retry_gave_up_total", fn=lambda: float(self.gave_up))
        return self

    def budget_remaining(self, function: str) -> Optional[int]:
        """Retries the function may still spend (``None`` = unlimited)."""
        if self.policy.retry_budget is None:
            return None
        return self.policy.retry_budget - self._budget_spent.get(function, 0)

    def budget_spent(self, function: str) -> int:
        """Retries already charged against the function's budget."""
        return self._budget_spent.get(function, 0)

    def will_retry(self, function: str, attempts: int, elapsed_s: float = 0.0) -> bool:
        """Whether a failure of attempt ``attempts`` would be retried.

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

    def next_delay(self, function: str, attempts: int, elapsed_s: float = 0.0) -> Optional[float]:
        """Decide one failed attempt: its backoff delay, or ``None`` to give up.

        A retry spends one unit of the function's budget and draws its
        jitter from the function's own stream; giving up is counted in
        :attr:`gave_up`.
        """
        if not self.will_retry(function, attempts, elapsed_s):
            self.gave_up += 1
            return None
        delay = self.policy.backoff_s(attempts, self._streams.stream("retry", function))
        self._budget_spent[function] = self._budget_spent.get(function, 0) + 1
        self.retries_scheduled += 1
        return delay
