"""The platform simulator: routes requests to sandboxes and tracks cost-relevant metrics.

This is a discrete-event simulation of the serving layer of one function on
one platform, built on the shared :mod:`repro.sim` kernel.  It combines the
pieces defined elsewhere in the package:

- the concurrency model decides how many requests may share a sandbox,
- the contention model stretches execution under concurrent load,
- the serving-architecture model adds per-request overhead,
- the keep-alive policy decides how long idle sandboxes survive,
- the autoscaler (when configured) grows and shrinks the instance pool from
  window-averaged metrics, reproducing the scaling lag of Figure 6.  It runs
  as a *periodic kernel process* (it computes its own next evaluation tick)
  rather than being called inline, so it co-simulates cleanly when several
  functions share one kernel.

Event ordering and the clock live in :class:`repro.sim.kernel.SimulationKernel`.
The simulator records into its own metrics directly and publishes on a
:class:`repro.sim.events.EventBus` only the facts other layers read: the
full typed sandbox lifecycle (cold start, busy, idle, termination with its
reason), which the live cost meter (:mod:`repro.billing.meter`) consumes,
plus request completions, failures and retries for the meter and observers.
Each of those records exists only for its subscribers, so every publish asks
:meth:`~repro.sim.events.EventBus.hears` first and builds nothing when no
one listens.  The fleet placement layer (:mod:`repro.cluster.fleet`) is not
a subscriber: the simulator calls it right after each cold-start and
termination publish.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.numeric import fold
from repro.platform.config import FunctionConfig, PlatformConfig
from repro.platform.metrics import Attempt, FailedRequest, RequestOutcome, SimulationMetrics
from repro.platform.autoscaler import Autoscaler, AutoscalerProcess
from repro.platform.sandbox import ActiveRequest, Sandbox, SandboxState
from repro.sim.arrivals import ArrivalSource, ArrivalStream
from repro.sim.events import (
    EventBus,
    RequestArrived,
    RequestCompleted,
    RequestDenied,
    RequestExecuting,
    RequestFailed,
    RetryScheduled,
    SandboxBusy,
    SandboxColdStart,
    SandboxIdle,
    SandboxTerminated,
)
from repro.sim.feedback import PublishedRate
from repro.sim.kernel import HORIZON_SLACK_S, Event, SimulationKernel
from repro.sim.retry import RetryLoop
from repro.tenancy.admission import AdmissionDecision

if TYPE_CHECKING:
    from repro.cluster.fleet import Fleet

__all__ = ["PlatformSimulator", "RequestOutcome", "SimulationMetrics"]

# Hoisted enum members: the arrival hot path compares these per request.
_ADMIT = AdmissionDecision.ADMIT
_DENY = AdmissionDecision.DENY

#: Event kinds the simulator schedules on the kernel; the autoscaler is a
#: periodic kernel process (:class:`repro.platform.autoscaler.AutoscalerProcess`)
#: rather than a pre-scheduled heap event.
_EVENT_KINDS = ("arrival", "sandbox_ready", "completion", "keepalive_expire")


class PlatformSimulator:
    """Simulates one function deployed on one platform configuration.

    By default each simulator owns a private :class:`SimulationKernel`.  Pass
    a shared ``kernel`` (plus a fleet-unique ``name``) to co-simulate several
    functions in one event loop -- the cluster co-simulation of
    :mod:`repro.cluster.cosim`.  The ``name`` namespaces the simulator's event
    kinds, sandbox names and request ids so co-simulated simulators never
    collide on the shared kernel or bus.

    Pass a :class:`~repro.cluster.fleet.Fleet` to place sandboxes on hosts:
    the simulator calls :meth:`~repro.cluster.fleet.Fleet.admit` right after
    each cold-start publish and :meth:`~repro.cluster.fleet.Fleet.release`
    right after each termination publish.  ``fleet=`` is the whole wiring.

    Pass a :class:`~repro.sim.feedback.PublishedRate` as ``rate=`` to close
    the state loop with the other layers: the simulator then (a) stretches
    busy times by the rate's served value (re-read at every admit/completion
    event, so the CPU-bandwidth scheduler's throttling factor reaches request
    latency), and (b) acts on the fleet's answer to each cold start -- a
    queued cold start hands the fleet a wake-up callback and defers
    ``sandbox_ready`` by its measured queue wait, and a rejected one is never
    built and fails its request with a typed
    :class:`~repro.platform.metrics.FailedRequest`.  ``rate=`` is the whole
    wiring.  Without one (the default) the simulator holds a private rate
    nobody publishes into (exactly ``1.0``), the fleet is still told about
    every cold start and termination, the answer is ignored, and behaviour is
    byte-identical to the pre-feedback simulator.

    Pass a :class:`~repro.sim.retry.RetryLoop` to model clients that retry:
    the simulator asks the loop once per failed attempt
    (:meth:`~repro.sim.retry.RetryLoop.next_delay`), stamps the failure's
    ``gave_up`` flag from the answer and, unless it gave up, schedules the
    retry itself -- a fresh ``arrival`` kernel event carrying the attempt
    count and cumulative backoff, which re-enters routing, cold-start and
    fleet admission gating exactly like an organic arrival.  ``retry=`` is
    the whole wiring.  Without a loop (the default) every failure is
    terminal and behaviour is byte-identical to the pre-retry simulator.

    Pass an ``admission`` controller (plus the ``tenant`` this simulator's
    deployment belongs to) to meter arrivals against the tenancy layer's
    per-tenant credit accounts *before* routing: denied arrivals fail with a
    typed :class:`~repro.sim.events.RequestDenied` (terminal, no capacity
    burned), credit-queued arrivals park in the controller until refill and
    re-enter routing via :meth:`resume_admission`.  Without a controller (the
    default) arrivals take exactly the pre-tenancy path.

    Observers attach to a :class:`~repro.cluster.cosim.ClusterSimulator`,
    never here: its host sets ``emit_spans`` so this simulator publishes the
    request-span markers the shared-bus trace collector reads.
    """

    def __init__(
        self,
        platform: PlatformConfig,
        function: FunctionConfig,
        seed: int = 0,
        bus: Optional[EventBus] = None,
        kernel: Optional[SimulationKernel] = None,
        name: str = "",
        rate: Optional[PublishedRate] = None,
        retry: Optional[RetryLoop] = None,
        emit_spans: bool = False,
        retain_outcomes: bool = True,
        tenant: str = "",
        admission=None,
        fleet: Optional["Fleet"] = None,
    ) -> None:
        self.platform = platform
        self.function = function
        if kernel is not None and not name:
            raise ValueError("co-simulating on a shared kernel requires a unique simulator name")
        self.name = name
        self._id_prefix = f"{name}/" if name else ""
        self._rng = np.random.default_rng(seed)
        self._request_counter = itertools.count()
        self._sandbox_counter = itertools.count()
        self._kernel = kernel if kernel is not None else SimulationKernel()
        for kind in _EVENT_KINDS:
            self._kernel.on(self._kind(kind), getattr(self, f"_handle_{kind}"))
        # Namespaced kind strings are per-simulator constants; the hot paths
        # schedule thousands of these, so skip the per-call f-string.
        self._kind_arrival = self._kind("arrival")
        self._kind_sandbox_ready = self._kind("sandbox_ready")
        self._kind_completion = self._kind("completion")
        self._kind_keepalive_expire = self._kind("keepalive_expire")
        #: Live sandbox registry: terminated sandboxes are discarded on the
        #: spot (:meth:`_discard_sandbox`), so its size is the alive-instance
        #: count and memory stays bounded over million-request runs.
        self._sandboxes: Dict[str, Sandbox] = {}
        #: Routing index: one ``(concurrency, name)`` key per ready (idle or
        #: busy) sandbox, kept sorted.  The head is the sandbox routing picks
        #: -- fewest active requests, ties to the lowest name -- so a routing
        #: decision reads one key instead of scanning every sandbox.  Updated
        #: wherever a ready sandbox's concurrency changes (:meth:`_reindex`),
        #: on readiness and on discard.
        self._routable: List[Tuple[int, str]] = []
        self._max_concurrency = platform.concurrency.max_concurrency
        #: Ingress FIFO of attempts waiting for a sandbox with free capacity.
        self._queue: Deque[Attempt] = deque()
        self.metrics = SimulationMetrics(retain_outcomes=retain_outcomes)
        # The function's per-request constants, folded once for admit/completion.
        self._sample_overhead = platform.serving.sampler(function.alloc_vcpus, self._rng)
        self._cpu_time_s = function.cpu_time_s
        self._io_time_s = function.io_time_s
        self._service_time_s = function.service_time_s
        # Open loop: a never-published rate (1.0), and the fleet's admission
        # answer is ignored -- no wake-up callback to hand it.
        self._rate = rate if rate is not None else PublishedRate()
        self._fleet = fleet
        self._wake = self._on_admission_resolved if rate is not None else None
        self._retry = retry
        self._tenant = tenant
        self._admission = admission
        # Span emission (RequestArrived / RequestExecuting markers) is gated:
        # without an observer these per-request publishes are pure overhead.
        # The co-simulation host sets it when its shared-bus collector listens.
        self._emit_spans = emit_spans
        # Each simulator owns its bus, so per-function subscribers (the cost
        # meter) only ever see its own events.  A caller-supplied bus becomes
        # a downstream observer: every event is forwarded to it (delivered in
        # the same publish), letting one external bus watch several
        # co-simulated simulators.
        self.bus = EventBus()
        if bus is not None:
            self.bus.forward_to(bus)
        self._autoscaler: Optional[Autoscaler] = None
        if platform.autoscaler is not None:
            self._autoscaler = Autoscaler(
                platform.autoscaler,
                max_concurrency=platform.concurrency.max_concurrency,
                alloc_vcpus=function.alloc_vcpus,
            )
            self._kernel.add_process(
                AutoscalerProcess(platform.autoscaler.evaluation_interval_s, self._autoscale_tick)
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def kernel(self) -> SimulationKernel:
        """The underlying event kernel (exposed for co-simulation and tests)."""
        return self._kernel

    def _kind(self, kind: str) -> str:
        """Namespace an event kind with the simulator name (shared-kernel safety)."""
        return f"{self.name}:{kind}" if self.name else kind

    def schedule_arrivals(
        self,
        arrivals: Union[Sequence[float], ArrivalSource, ArrivalStream],
        horizon_s: Optional[float] = None,
    ) -> float:
        """Schedule request arrivals on the kernel; returns the run horizon.

        Does not execute anything -- a co-simulation host schedules arrivals
        for every simulator sharing the kernel and then runs the kernel once.

        ``arrivals`` may be an explicit time sequence (each scheduled as its
        own kernel event up front), an :class:`~repro.sim.arrivals.ArrivalSource`
        or a pre-built :class:`~repro.sim.arrivals.ArrivalStream`: sources are
        generated in vectorized chunks and *streamed* into the kernel with
        their tie-break ranks reserved up front, which is byte-identical to
        eager scheduling while bounding heap memory at millions of requests.
        """
        if isinstance(arrivals, (ArrivalSource, ArrivalStream)):
            stream = arrivals if isinstance(arrivals, ArrivalStream) else ArrivalStream(arrivals)
            if horizon_s is None:
                tail = self.function.service_time_s * 50 + 10.0
                horizon_s = stream.source.last_arrival_s() + tail
            stream.attach(self._kernel, self._kind_arrival)
            return horizon_s
        arrivals = sorted(arrivals)
        if horizon_s is None:
            tail = self.function.service_time_s * 50 + 10.0
            horizon_s = (arrivals[-1] if arrivals else 0.0) + tail
        for arrival in arrivals:
            self._kernel.schedule(arrival, self._kind_arrival)
        return horizon_s

    def run(self, arrivals: Sequence[float], horizon_s: Optional[float] = None) -> SimulationMetrics:
        """Simulate the given request arrival times; returns collected metrics."""
        horizon_s = self.schedule_arrivals(arrivals, horizon_s)
        self._kernel.run(until=horizon_s + HORIZON_SLACK_S)
        self.metrics.pending_requests = self.pending_request_count
        return self.metrics

    @property
    def pending_request_count(self) -> int:
        """Requests admitted to the system but not yet executing anywhere.

        Ingress-queued requests plus requests parked behind a cold-starting
        sandbox (including sandboxes whose fleet admission is still queued
        under the feedback layer).  A co-simulation host snapshots this into
        the metrics when the shared run ends, so backpressure that outlives
        the horizon is reported instead of silently censored.

        With the tenancy layer attached, requests parked in the tenant's
        credit queue count too: they arrived but are neither executing,
        completed, failed nor denied, so the conservation law needs them
        here.
        """
        pending = len(self._queue) + sum(len(s.cold_waiters) for s in self._sandboxes.values())
        if self._admission is not None:
            pending += self._admission.queued_count(self.name)
        return pending

    @property
    def in_flight_request_count(self) -> int:
        """Requests admitted into sandboxes and not yet completed.

        Together with :attr:`pending_request_count`, completed and failed
        requests this closes the arrival conservation law
        (``arrivals == completed + failed + pending + in-flight``) at any
        instant -- the invariant the cross-layer conservation test suite
        checks on every configuration.
        """
        return sum(s.concurrency for s in self._sandboxes.values())

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _instance_count(self) -> int:
        # The registry holds exactly the alive sandboxes (terminated ones are
        # discarded on the spot).
        return len(self._sandboxes)

    # ------------------------------------------------------------------
    # Arrival and routing
    # ------------------------------------------------------------------

    def _handle_arrival(self, event: Event) -> None:
        request_id = f"{self._id_prefix}req-{next(self._request_counter):07d}"
        # Organic arrivals have an empty payload (the hot path skips every
        # dict lookup); retries (_fail_request) carry the next
        # attempt's metadata, and chunk-boundary arrivals from a streamed
        # source carry the stream to refill.
        data = event.data
        now = self._kernel.now
        if data and "attempts" in data:
            attempt = Attempt(
                request_id, now, data["origin_s"], data["attempts"], data["retry_wait_s"]
            )
        else:
            attempt = Attempt(request_id, now, now)
            if data:
                # Refill synchronously, inside this event: the next chunk is
                # on the heap before the kernel can pop anything after it,
                # which is what keeps streaming byte-identical to eager
                # scheduling.
                data["stream"].push_next_chunk()
        self.metrics.record_arrival(attempt.attempts)
        if self._emit_spans:
            self.bus.publish(
                RequestArrived(
                    now,
                    request_id,
                    function_name=self.function.name,
                    attempts=attempt.attempts,
                    retry_wait_s=attempt.retry_wait_s,
                    parent_id=data.get("parent_id", ""),
                    tenant=self._tenant,
                )
            )
        if self._admission is not None:
            # Credit metering happens before any capacity is touched.  A
            # denial is terminal (a throttling response, never retried); a
            # queued arrival parks in the controller and re-enters through
            # resume_admission() when the tenant's bucket refills.
            decision = self._admission.admit(self.name, now, attempt)
            if decision is not _ADMIT:
                if decision is _DENY:
                    self._deny_request(request_id, now)
                return
        self._route(attempt, now)

    def resume_admission(self, attempt: Attempt) -> None:
        """Route a credit-released attempt with its original arrival metadata.

        Called by the :class:`~repro.tenancy.admission.AdmissionController`
        from inside its credit-release kernel event.  ``attempt.arrival_s``
        is the arrival that was parked, so the credit wait is visible in the
        request's latency (and SLO attainment) like any other queueing delay.
        """
        self._route(attempt, self._kernel.now)

    def _deny_request(self, request_id: str, now: float) -> None:
        """Record and publish a credit denial (terminal; nothing was routed)."""
        self.metrics.record_denied()
        bus = self.bus
        if bus.hears(RequestDenied):
            bus.publish(RequestDenied(now, request_id, self._tenant, self.function.name, "credits"))

    def _route(self, attempt: Attempt, now: float) -> None:
        sandbox = self._pick_sandbox()
        if sandbox is not None:
            self._admit(sandbox, attempt, False, now)
            return
        if self._max_concurrency == 1 or not self._sandboxes:
            # Single-concurrency platforms provision a fresh sandbox per excess
            # request; multi-concurrency platforms also cold-start when scaled
            # to zero.
            self._create_sandbox(now, attempt)
            return
        # Multi-concurrency: all instances are at their concurrency limit; the
        # request queues at the ingress until capacity frees or the autoscaler
        # adds instances.
        self._queue.append(attempt)

    def _pick_sandbox(self) -> Optional[Sandbox]:
        """Choose a ready sandbox with available concurrency (fewest active requests).

        The routing index is sorted by ``(concurrency, name)``, so its head is
        ``min(ready sandboxes, key=(concurrency, name))`` -- the selection a
        full scan makes -- and if the head is at its limit, every sandbox is.
        """
        routable = self._routable
        if routable:
            concurrency, name = routable[0]
            if concurrency < self._max_concurrency:
                return self._sandboxes[name]
        return None

    def _reindex(self, sandbox: Sandbox, old_concurrency: int) -> None:
        """Move a ready sandbox's routing key after its concurrency changed."""
        routable = self._routable
        name = sandbox.name
        del routable[bisect_left(routable, (old_concurrency, name))]
        insort(routable, (sandbox.concurrency, name))

    def _create_sandbox(self, now: float, attempt: Optional[Attempt] = None) -> None:
        """Cold-start a sandbox for ``attempt`` (``None``: for the autoscaler).

        The fleet decides admission synchronously right after the
        cold-start publish.  In the closed loop, a rejected cold start is never
        built, and the attempt it was made for fails instead of waiting for
        readiness; a queued one waits for the fleet's wake-up call.
        """
        function = self.function
        init_duration = self.platform.placement_delay_s + function.init_duration_s
        # Per-simulator, zero-padded names (prefixed with the simulator name in
        # a co-simulation): runs are reproducible regardless of how many
        # sandboxes other simulations in this process created, and
        # lexicographic tie-breaks in `_pick_sandbox` match creation order.
        name = f"{self._id_prefix}sandbox-{next(self._sandbox_counter):06d}"
        bus = self.bus
        if bus.hears(SandboxColdStart):
            bus.publish(SandboxColdStart(now, name, function.name, function.alloc_vcpus,
                                         function.alloc_memory_gb, init_duration))
        queued = False
        fleet = self._fleet
        if fleet is not None:
            wake = self._wake
            host = fleet.admit(now, name, function.alloc_vcpus, function.alloc_memory_gb, wake)
            if host is None and wake is not None:
                queued = name in fleet.queue
                if not queued:
                    self._terminated(now, name, "admission_rejected")
                    self.metrics.record_instances(now, self._instance_count())
                    if attempt is not None:
                        self._fail_request(attempt, "admission_rejected", now, name)
                    return
        sandbox = self._sandboxes[name] = Sandbox(
            name=name,
            function_name=function.name,
            alloc_vcpus=function.alloc_vcpus,
            alloc_memory_gb=function.alloc_memory_gb,
            contention=self.platform.contention,
            created_s=now,
            init_duration_s=init_duration,
            runtime_workers=self.platform.concurrency.effective_workers,
        )
        if not queued:
            # Placed, or open loop / no fleet: initialisation starts now.
            # A queued sandbox cannot initialise until it lands on a host, so
            # the fleet's wake-up call schedules its readiness instead and
            # the measured queue wait shifts `sandbox_ready` one-for-one.
            self._kernel.schedule_in(init_duration, self._kind_sandbox_ready, {"sandbox": name})
        self.metrics.record_instances(now, self._instance_count())
        if attempt is not None:
            sandbox.cold_waiters.append(attempt)

    def _on_admission_resolved(self, name: str) -> None:
        """The fleet's wake-up call: it admitted the queued sandbox ``name``.

        A gated sandbox is still initialising (nothing terminates one), so
        initialisation starts now and readiness follows it.
        """
        self._kernel.schedule_in(
            self._sandboxes[name].init_duration_s, self._kind_sandbox_ready, {"sandbox": name}
        )

    def _terminated(self, now: float, name: str, reason: str) -> None:
        """Publish a sandbox's termination, then hand its capacity back to the fleet."""
        bus = self.bus
        if bus.hears(SandboxTerminated):
            bus.publish(SandboxTerminated(now, name, reason))
        if self._fleet is not None:
            self._fleet.release(now, name)

    def _discard_sandbox(self, sandbox: Sandbox) -> None:
        """Forget a terminated sandbox.

        Keeping every dead sandbox in the registry made routing scans and
        memory grow with the total number ever created -- quadratic over a
        million-request run.  All event handlers treat an unknown sandbox
        name as terminated, so stale kernel events for a discarded sandbox
        are ignored exactly as they were when its record stuck around.
        """
        name = sandbox.name
        self._sandboxes.pop(name, None)
        # Only sandboxes that became ready have a routing key (an aborted one
        # never did); a terminated sandbox has no active requests.
        routable = self._routable
        index = bisect_left(routable, (sandbox.concurrency, name))
        if index < len(routable) and routable[index][1] == name:
            del routable[index]

    def _fail_request(self, attempt: Attempt, reason: str, now: float, sandbox_name: str) -> None:
        # One retry decision per failed attempt: the loop's answer stamps
        # gave_up and drives the re-arrival, so the two always agree.
        # Elapsed time since the logical request's first attempt feeds the
        # policy's retry deadline.
        retry = self._retry
        delay = (
            retry.next_delay(self.name, attempt.attempts, now - attempt.origin_s)
            if retry is not None
            else None
        )
        failed = FailedRequest(
            attempt.request_id, attempt.arrival_s, attempt.origin_s, now, reason, sandbox_name,
            attempt.attempts, attempt.retry_wait_s, retry is not None and delay is None,
            self._tenant,
        )
        self.metrics.record_failure(failed)
        bus = self.bus
        if bus.hears(RequestFailed):
            bus.publish(RequestFailed(now, failed))
        if delay is None:
            return
        # The retry is a fresh arrival: attempt number plus one, cumulative
        # backoff plus the delay, the same first-arrival origin_s (deadlines
        # and SLO attainment measure from the logical request's birth).  It
        # gets a new request id and re-enters routing, cold start and fleet
        # admission, so retry load adds to the backpressure that failed it.
        # The failed attempt's id rides along as parent_id for the trace
        # layer's retry chains; it does not affect simulation state.
        self._kernel.schedule_in(
            delay,
            self._kind_arrival,
            {
                "attempts": attempt.attempts + 1,
                "retry_wait_s": attempt.retry_wait_s + delay,
                "parent_id": attempt.request_id,
                "origin_s": attempt.origin_s,
            },
        )
        if bus.hears(RetryScheduled):
            bus.publish(
                RetryScheduled(now, attempt.request_id, self.name, attempt.attempts + 1, delay)
            )

    def _handle_sandbox_ready(self, event: Event) -> None:
        sandbox = self._sandboxes.get(event.data["sandbox"])
        if sandbox is None or sandbox.state is SandboxState.TERMINATED:
            return
        now = self._kernel.now
        sandbox.mark_ready(now)
        insort(self._routable, (sandbox.concurrency, sandbox.name))
        waiting, sandbox.cold_waiters = sandbox.cold_waiters, []
        for attempt in waiting:
            # The request(s) that waited for this sandbox experienced the cold start.
            self._admit(sandbox, attempt, True, now)
        self._drain_queue(now)
        self._maybe_schedule_keepalive(sandbox, now)

    def _admit(self, sandbox: Sandbox, attempt: Attempt, cold: bool, now: float) -> None:
        overhead = self._sample_overhead()
        request = ActiveRequest(attempt, self._cpu_time_s, self._io_time_s + overhead, overhead,
                                cold, (now - attempt.arrival_s) if cold else 0.0)
        was_busy = sandbox.state is SandboxState.BUSY
        concurrency = sandbox.concurrency
        sandbox.admit(request, now)
        self._reindex(sandbox, concurrency)
        self._refresh_rate_factor(sandbox)
        if self._emit_spans:
            self.bus.publish(
                RequestExecuting(
                    now,
                    attempt.request_id,
                    sandbox_name=sandbox.name,
                    cold_start=cold,
                    rate_factor=sandbox.rate_factor,
                )
            )
        if not was_busy:
            bus = self.bus
            if bus.hears(SandboxBusy):
                bus.publish(SandboxBusy(now, sandbox.name, sandbox.concurrency))
        self._schedule_completion_check(sandbox, now)

    def _refresh_rate_factor(self, sandbox: Sandbox) -> None:
        """Re-read the published slowdown at event-schedule time.

        Called *after* the sandbox advanced its requests to ``now`` (so the
        interval just closed used the factor it was scheduled under) and
        *before* the next completion check is scheduled (so the projection and
        the eventual :meth:`Sandbox.advance` agree on the new rate).  In the
        open loop nobody publishes and the factor stays at exactly ``1.0`` --
        the float-identical pre-feedback behaviour.
        """
        sandbox.rate_factor = self._rate.served

    # ------------------------------------------------------------------
    # Completion handling
    # ------------------------------------------------------------------

    def _schedule_completion_check(self, sandbox: Sandbox, now: float) -> None:
        self._arm_completion_check(sandbox, now, sandbox.next_completion_time(now))

    def _arm_completion_check(self, sandbox: Sandbox, now: float, next_time: Optional[float]) -> None:
        """Supersede the sandbox's pending check with one at ``next_time`` (``None``: none)."""
        version = sandbox.completion_version = sandbox.completion_version + 1
        if next_time is not None:
            self._kernel.schedule(now if now > next_time else next_time, self._kind_completion,
                                  {"sandbox": sandbox.name, "version": version})

    def _handle_completion(self, event: Event) -> None:
        data = event.data
        name = data["sandbox"]
        sandbox = self._sandboxes.get(name)
        if sandbox is None or data["version"] != sandbox.completion_version:
            return  # stale: membership changed, or the sandbox is gone
        now = self._kernel.now
        finished = sandbox.advance(now)
        if not finished:
            self._refresh_rate_factor(sandbox)
            next_time = sandbox.next_completion_time(now)
            if next_time is None or next_time > now:
                self._arm_completion_check(sandbox, now, next_time)
                return
            # Armed at `now`, this check would fire into the same state
            # forever: far from t = 0 a residual above the done tolerance can
            # still round to `now`.  Finish what the clock cannot tell apart.
            finished = sandbox.stalled_requests(now)
            if not finished:
                raise RuntimeError(f"sandbox {name} stalled at t={now!r} with no request to finish")
        for request in finished:
            attempt = request.attempt
            request_id = attempt.request_id
            concurrency = sandbox.concurrency
            sandbox.remove(request_id, now)
            self._reindex(sandbox, concurrency)
            exec_start = request.exec_start_s
            queue_delay = exec_start - attempt.arrival_s - request.init_wait_s
            outcome = RequestOutcome(
                request_id, attempt.arrival_s, attempt.origin_s, exec_start, now, now - exec_start,
                request.cold_start, request.init_wait_s, 0.0 if 0.0 > queue_delay else queue_delay,
                name, self._service_time_s + request.overhead_s, attempt.attempts,
                attempt.retry_wait_s, self._tenant,
            )
            self.metrics.record(outcome)
            bus = self.bus
            if bus.hears(RequestCompleted):
                bus.publish(RequestCompleted(now, outcome))
        self._drain_queue(now)
        self._maybe_schedule_keepalive(sandbox, now)
        self._refresh_rate_factor(sandbox)
        self._schedule_completion_check(sandbox, now)

    def _drain_queue(self, now: float) -> None:
        """Move queued requests onto sandboxes with free capacity (FIFO)."""
        while self._queue:
            sandbox = self._pick_sandbox()
            if sandbox is None:
                return
            self._admit(sandbox, self._queue.popleft(), False, now)

    # ------------------------------------------------------------------
    # Keep-alive and termination
    # ------------------------------------------------------------------

    def _maybe_schedule_keepalive(self, sandbox: Sandbox, now: float) -> None:
        if sandbox.state is not SandboxState.IDLE:
            return
        bus = self.bus
        if bus.hears(SandboxIdle):
            bus.publish(SandboxIdle(now, sandbox.name))
        keep_alive = self.platform.keep_alive.sample_keep_alive_s(
            self._rng, scaled_out_instances=self._instance_count()
        )
        deadline = now + keep_alive
        sandbox.keep_alive_deadline_s = deadline
        # At most one pending expiry check per sandbox.  Scheduling one event
        # per idle transition (the old scheme) left every superseded check on
        # the heap for the full keep-alive window -- hundreds of thousands of
        # stale entries in a long busy run.  A pending *earlier* check
        # re-arms itself at the current deadline when it fires
        # (:meth:`_handle_keepalive_expire`), so only a deadline that moved
        # earlier than the pending check needs a new event.
        pending = sandbox.keepalive_check_s
        if pending is not None and pending <= deadline:
            return
        self._arm_keepalive_check(sandbox, deadline)

    def _arm_keepalive_check(self, sandbox: Sandbox, deadline: float) -> None:
        sandbox.keepalive_check_s = deadline
        self._kernel.schedule(
            deadline, self._kind_keepalive_expire, {"sandbox": sandbox.name, "deadline": deadline}
        )

    def _handle_keepalive_expire(self, event: Event) -> None:
        sandbox = self._sandboxes.get(event.data["sandbox"])
        if sandbox is None:
            return
        checked = event.data["deadline"]
        if sandbox.keepalive_check_s == checked:
            sandbox.keepalive_check_s = None
        if sandbox.state is not SandboxState.IDLE:
            return
        deadline = sandbox.keep_alive_deadline_s
        if deadline != checked:
            # The sandbox served more requests since this check was armed.
            # If its current deadline lies beyond this check and nothing else
            # is pending, re-arm at that deadline -- the check this handler
            # suppressed at idle time.  (A deadline *before* this check
            # always has its own earlier pending event.)
            pending = sandbox.keepalive_check_s
            if deadline > checked and (pending is None or pending > deadline):
                self._arm_keepalive_check(sandbox, deadline)
            return
        now = self._kernel.now
        sandbox.terminate(now)
        self._discard_sandbox(sandbox)
        self._terminated(now, sandbox.name, "keepalive_expire")
        self.metrics.record_instances(now, self._instance_count())

    # ------------------------------------------------------------------
    # Autoscaling (a periodic kernel process, registered in __init__)
    # ------------------------------------------------------------------

    def _autoscale_tick(self, now_s: float) -> None:
        alive = self._sandboxes.values()
        active_requests = sum(s.concurrency for s in alive) + len(self._queue)
        busy_vcpus = fold(
            min(float(s.concurrency), s.alloc_vcpus) for s in alive if s.state is SandboxState.BUSY
        )
        self._autoscaler.observe(now_s, active_requests, busy_vcpus, len(alive))
        desired = self._autoscaler.desired_instances(now_s, len(alive))
        current = len(alive)
        if desired > current:
            for _ in range(desired - current):
                self._create_sandbox(now_s)
        elif desired < current:
            removable = [s for s in alive if s.state is SandboxState.IDLE]
            for sandbox in removable[: current - desired]:
                sandbox.terminate(now_s)
                self._discard_sandbox(sandbox)
                self._terminated(now_s, sandbox.name, "scale_down")
        self.metrics.record_instances(now_s, self._instance_count())
        self._drain_queue(now_s)
