"""Metrics collected by the platform simulator.

:class:`SimulationMetrics` is hot-path state: one :class:`RequestOutcome` is
recorded per completed request, and million-request runs make the old
list-walking aggregations (re-deriving sums and percentile inputs from the
outcome objects on every call) the dominant cost of ``summary()``.  The
collector therefore keeps *incremental* aggregates next to the raw records:

- execution durations and end-to-end latencies land in preallocated,
  doubling ``float64`` buffers at record time (``summary()`` and the
  percentile helpers read slices, never rebuild lists);
- scalar sums (latency, service floor, terminal attempts) accumulate as the
  requests complete, in arrival order -- the same left-to-right order the
  old ``sum(...)`` calls used, so every derived statistic is bit-identical.

``retain_outcomes=False`` additionally drops the per-request outcome and
failure records (the aggregates and counters are kept), bounding memory
for million-request benchmark runs.  Record-level views
(``duration_timeline``, ``attempt_counts``) raise in that mode instead of
silently returning empty results.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.events import slot_init

__all__ = ["Attempt", "FailedRequest", "RequestOutcome", "SimulationMetrics"]

#: ``slots=True`` shrinks the per-request records (one ``RequestOutcome`` per
#: completed request is hot-path allocation), but the dataclass flag only
#: exists on Python 3.10+; older interpreters fall back to dict-backed
#: dataclasses with identical behaviour.
_SLOTS: Dict[str, bool] = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Initial capacity of the duration/latency buffers; doubled on overflow.
_INITIAL_CAPACITY = 1024


@dataclass(**_SLOTS)
class Attempt:
    """One client attempt of a logical request, from arrival to outcome.

    The platform simulator builds exactly one per arrival event and carries
    it unchanged through credit admission, cold-start waits, the ingress
    queue and the sandbox, until it becomes a :class:`RequestOutcome` or a
    :class:`FailedRequest`.  ``origin_s`` is the first attempt's arrival
    time: ``arrival_s`` itself for organic traffic, inherited from the
    failed parent for retries.  Not frozen on purpose: one is built per
    arrival on the hot path, and a frozen init still costs more even through
    :func:`~repro.sim.events.slot_init` (the helper the outcome records use),
    which calls one slot setter per field where this init stores directly.
    """

    request_id: str
    arrival_s: float
    origin_s: float
    #: Client attempt number (1 = original; >1 = retry-loop re-injection).
    attempts: int = 1
    #: Cumulative client backoff spent before this attempt arrived.
    retry_wait_s: float = 0.0


@slot_init
@dataclass(frozen=True, **_SLOTS)
class RequestOutcome:
    """The outcome of one simulated invocation, as the provider would report it."""

    request_id: str
    arrival_s: float
    #: Arrival time of the *first* attempt of this logical request (equals
    #: ``arrival_s`` for attempt-1 traffic; earlier for retries).
    origin_s: float
    start_s: float
    completion_s: float
    execution_duration_s: float
    cold_start: bool
    init_duration_s: float
    queue_delay_s: float
    sandbox_name: str
    #: Uncontended, unthrottled floor of this request's execution duration
    #: (serving overhead + CPU at full allocation + IO).  Everything above it
    #: -- contention, scheduler throttling via the feedback layer, sandbox
    #: queueing -- is latency inflation.  ``0`` on records that predate the
    #: feedback layer (old pickles / hand-built outcomes).
    service_floor_s: float = 0.0
    #: Which client attempt this was (1 = the original request; >1 means the
    #: retry loop re-injected it after earlier attempts failed).
    attempts: int = 1
    #: Cumulative client-side backoff the request waited across all earlier
    #: failed attempts before this (successful) one arrived.
    retry_wait_s: float = 0.0
    #: Tenant that issued the request (empty without the tenancy layer).
    tenant: str = ""

    @property
    def end_to_end_latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    @property
    def client_latency_s(self) -> float:
        """Latency the client perceived: completion minus first-attempt arrival.

        Includes every failed attempt's wait and all client-side backoff --
        the latency SLO attainment is judged against.
        """
        return self.completion_s - self.origin_s

    @property
    def turnaround_s(self) -> float:
        """Billable turnaround: init (when cold) plus execution."""
        return self.init_duration_s + self.execution_duration_s


@slot_init
@dataclass(frozen=True, **_SLOTS)
class FailedRequest:
    """A request the platform gave up on (it never started executing).

    Produced when the execution-feedback layer reports that the fleet
    *rejected* the cold-started sandbox the request was waiting on -- the
    admission outcome the paper's backpressure arguments say must surface in
    user-visible failure rates rather than disappear at the placement layer.
    """

    request_id: str
    arrival_s: float
    #: Arrival time of the first attempt of this logical request; the retry
    #: loop's deadline check measures elapsed time from here.
    origin_s: float
    failed_s: float
    reason: str
    sandbox_name: str = ""
    #: Which client attempt failed (1 = the original request).
    attempts: int = 1
    #: Cumulative client-side backoff spent before this attempt arrived.
    retry_wait_s: float = 0.0
    #: Terminal flag set by the retry layer: ``True`` means the client will
    #: not retry this failure (attempts exhausted or retry budget spent).
    #: Always ``False`` without a retry loop -- the pre-retry behaviour,
    #: where every failure was implicitly terminal.
    gave_up: bool = False
    #: Tenant that issued the request (empty without the tenancy layer).
    tenant: str = ""


@dataclass
class SimulationMetrics:
    """Aggregated output of one platform simulation."""

    requests: List[RequestOutcome] = field(default_factory=list)
    #: Requests the platform failed (rejected sandbox admission), in order.
    failures: List[FailedRequest] = field(default_factory=list)
    #: Requests still waiting when the run ended: parked at the ingress queue
    #: or behind a sandbox whose admission never resolved (backpressure that
    #: outlived the horizon).  Neither completed nor failed -- censored --
    #: but they must not vanish from a saturated run's accounting.
    pending_requests: int = 0
    #: (time, instance count) samples over the simulation.
    instance_timeline: List[Tuple[float, int]] = field(default_factory=list)
    cold_starts: int = 0
    #: Arrival events that actually fired, retries included.  The conservation
    #: law every run must satisfy: ``arrivals == completed + failed + pending
    #: + in-flight`` (the last term is zero once a run has drained).
    arrivals: int = 0
    #: Of those, how many were retry re-injections (attempt > 1).
    retry_arrivals: int = 0
    #: Arrivals the tenancy layer's admission controller denied for credits.
    #: Denials are terminal and never reach routing, so they form their own
    #: bucket in the conservation law: ``arrivals == completed + failed +
    #: denied + pending + in-flight``.  Always 0 without the tenancy layer.
    denied_requests: int = 0
    #: Latency SLO target for this simulator's tenant (``None`` = no SLO).
    #: When set, :meth:`record` counts completions whose *client-perceived*
    #: latency (completion minus first-attempt arrival) meets the target.
    slo_latency_s: Optional[float] = None
    #: Completions that met ``slo_latency_s`` (0 when no target is set).
    slo_attained: int = 0
    #: ``False`` drops the per-request outcome and failure records at record
    #: time while keeping every incremental aggregate and counter -- bounded
    #: memory for million-request runs.  Record-level views
    #: (:meth:`duration_timeline`, :meth:`attempt_counts`) then raise.
    retain_outcomes: bool = True

    def __post_init__(self) -> None:
        # Incremental aggregates, maintained by record() in arrival order so
        # every derived statistic matches the old list-walking computations
        # bit for bit.  Buffers are float64 and doubled on overflow; the
        # first `_completed` entries are live.
        self._completed: int = 0
        self._durations: np.ndarray = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._latencies: np.ndarray = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._latency_sum: float = 0.0
        self._floor_sum: float = 0.0
        #: Attempts of every terminal request: completed or given up.
        self._terminal_attempts_sum: int = 0
        self._failed: int = 0
        self._gave_up: int = 0

    def record(self, outcome: RequestOutcome) -> None:
        if self.retain_outcomes:
            self.requests.append(outcome)
        index = self._completed
        durations = self._durations
        if index == durations.shape[0]:
            self._durations = np.empty(durations.shape[0] * 2, dtype=np.float64)
            self._durations[:index] = durations
            latencies = self._latencies
            self._latencies = np.empty(latencies.shape[0] * 2, dtype=np.float64)
            self._latencies[:index] = latencies
        latency = outcome.completion_s - outcome.arrival_s
        self._durations[index] = outcome.execution_duration_s
        self._latencies[index] = latency
        self._completed = index + 1
        self._latency_sum += latency
        self._floor_sum += outcome.service_floor_s
        self._terminal_attempts_sum += outcome.attempts
        if outcome.cold_start:
            self.cold_starts += 1
        if self.slo_latency_s is not None and outcome.client_latency_s <= self.slo_latency_s:
            self.slo_attained += 1

    def record_failure(self, failure: FailedRequest) -> None:
        if self.retain_outcomes:
            self.failures.append(failure)
        self._failed += 1
        if failure.gave_up:
            self._gave_up += 1
            self._terminal_attempts_sum += failure.attempts

    def record_denied(self) -> None:
        """Count a credit-denied arrival (terminal; never routed or retried)."""
        self.denied_requests += 1

    def record_arrival(self, attempts: int = 1) -> None:
        self.arrivals += 1
        if attempts > 1:
            self.retry_arrivals += 1

    def record_instances(self, now_s: float, count: int) -> None:
        self.instance_timeline.append((now_s, count))

    def _require_outcomes(self, what: str) -> None:
        if not self.retain_outcomes and (self._completed or self._failed):
            raise RuntimeError(
                f"{what} needs per-request outcome records, but this collector "
                "was created with retain_outcomes=False"
            )

    # ------------------------------------------------------------------
    # Aggregations used by the analysis / benchmark modules
    # ------------------------------------------------------------------

    @property
    def num_requests(self) -> int:
        return self._completed

    @property
    def failed_requests(self) -> int:
        return self._failed

    @property
    def gave_up_requests(self) -> int:
        """Terminal failures: the client exhausted its attempts or budget."""
        return self._gave_up

    @property
    def latency_sum_s(self) -> float:
        """Sum of end-to-end latencies, accumulated in completion order."""
        return self._latency_sum

    @property
    def service_floor_sum_s(self) -> float:
        """Sum of per-request service floors, accumulated in completion order."""
        return self._floor_sum

    def attempt_counts(self) -> List[int]:
        """Attempts of every *terminal* request: completed or given up.

        Non-terminal failures are excluded -- their retry is still in flight
        (or was censored by the horizon), so counting them would double-count
        the logical request.
        """
        self._require_outcomes("attempt_counts()")
        counts = [r.attempts for r in self.requests]
        counts.extend(f.attempts for f in self.failures if f.gave_up)
        return counts

    def terminal_attempt_stats(self) -> Tuple[int, int]:
        """``(sum of attempts, count)`` over terminal requests.

        The integer-exact aggregate behind ``mean_attempts``-style columns,
        available even with ``retain_outcomes=False``: it is accumulated at
        record time.
        """
        return self._terminal_attempts_sum, self._completed + self._gave_up

    def execution_durations_s(self) -> List[float]:
        return self._durations[: self._completed].tolist()

    def end_to_end_latencies_s(self) -> List[float]:
        return self._latencies[: self._completed].tolist()

    def mean_end_to_end_latency_s(self) -> float:
        if not self._completed:
            return float("nan")
        return float(np.mean(self._latencies[: self._completed]))

    def latency_inflation(self) -> float:
        """Aggregate latency above the uncontended service floor, as a ratio.

        ``(sum of end-to-end latencies - sum of service floors) / sum of
        floors``: ``0`` means every request completed at its floor, ``1``
        means latency doubled.  Cold-start waits, sandbox queueing, contention
        and feedback-layer throttling all inflate it.  ``NaN`` with no
        completed requests; ``0`` when floors were not recorded (pre-feedback
        outcome records).
        """
        if not self._completed:
            return float("nan")
        if self._floor_sum <= 0:
            return 0.0
        return (self._latency_sum - self._floor_sum) / self._floor_sum

    def mean_execution_duration_s(self) -> float:
        if not self._completed:
            return float("nan")
        return float(np.mean(self._durations[: self._completed]))

    def percentile_execution_duration_s(self, q: float) -> float:
        """Execution-duration percentile, defined for every input.

        Telemetry histograms and sweep summaries hit the edge cases
        constantly -- an empty run, a single completed request, a caller
        passing ``95`` instead of ``0.95`` -- so this delegates to
        :func:`repro.obs.metrics.percentile`, which never raises: empty
        series return ``nan``, a single sample is every percentile of
        itself, and percent-style ``q`` is normalised.
        """
        from repro.obs.metrics import percentile

        return percentile(self.execution_durations_s(), q)

    def percentile_end_to_end_latency_s(self, q: float) -> float:
        """End-to-end latency percentile, with the same total-domain contract."""
        from repro.obs.metrics import percentile

        return percentile(self.end_to_end_latencies_s(), q)

    def cold_start_rate(self) -> float:
        if not self._completed:
            return float("nan")
        return self.cold_starts / self._completed

    def slo_attainment(self) -> float:
        """Fraction of completions that met the latency SLO target.

        ``nan`` when no target is configured or nothing completed.
        """
        if self.slo_latency_s is None or not self._completed:
            return float("nan")
        return self.slo_attained / self._completed

    def max_instances(self) -> int:
        if not self.instance_timeline:
            return 0
        return max(count for _, count in self.instance_timeline)

    def duration_timeline(self, bucket_s: float = 10.0) -> List[Dict[str, float]]:
        """Mean / median / p95 execution duration per time bucket (Figure 6 right)."""
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        self._require_outcomes("duration_timeline()")
        buckets: Dict[int, List[float]] = {}
        for request in self.requests:
            bucket = int(request.arrival_s // bucket_s)
            buckets.setdefault(bucket, []).append(request.execution_duration_s)
        instance_by_bucket: Dict[int, List[int]] = {}
        for ts, count in self.instance_timeline:
            instance_by_bucket.setdefault(int(ts // bucket_s), []).append(count)
        rows: List[Dict[str, float]] = []
        for bucket in sorted(buckets):
            durations = np.asarray(buckets[bucket])
            instances = instance_by_bucket.get(bucket, [])
            rows.append(
                {
                    "time_s": bucket * bucket_s,
                    "mean_duration_s": float(np.mean(durations)),
                    "median_duration_s": float(np.median(durations)),
                    "p95_duration_s": float(np.quantile(durations, 0.95)),
                    "requests": float(durations.size),
                    "instances": float(np.mean(instances)) if instances else float("nan"),
                }
            )
        return rows

    def summary(self) -> Dict[str, float]:
        count = self._completed
        if not count:
            return {
                "num_requests": 0.0,
                "failed_requests": float(self.failed_requests),
                "pending_requests": float(self.pending_requests),
            }
        durations = self._durations[:count]
        return {
            "num_requests": float(count),
            "mean_execution_duration_s": float(np.mean(durations)),
            "median_execution_duration_s": float(np.median(durations)),
            "p95_execution_duration_s": float(np.quantile(durations, 0.95)),
            "cold_start_rate": self.cold_start_rate(),
            "max_instances": float(self.max_instances()),
            "failed_requests": float(self.failed_requests),
            "pending_requests": float(self.pending_requests),
            "mean_latency_s": self.mean_end_to_end_latency_s(),
            "latency_inflation": self.latency_inflation(),
        }
