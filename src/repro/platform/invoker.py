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
reason), which the fleet placement layer (:mod:`repro.cluster.fleet`) and
the live cost meter (:mod:`repro.billing.meter`) consume, plus request
completions, failures and retries for the meter and observers.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

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
    SandboxAdmitted,
    SandboxBusy,
    SandboxColdStart,
    SandboxIdle,
    SandboxTerminated,
    SimEvent,
)
from repro.sim.feedback import AdmissionState, FeedbackChannel
from repro.sim.kernel import Event, SimulationKernel
from repro.sim.retry import RetryLoop
from repro.tenancy.admission import AdmissionDecision

__all__ = ["PlatformSimulator", "RequestOutcome", "SimulationMetrics"]

# Hoisted enum members: the arrival hot path compares these per request.
_ADMIT = AdmissionDecision.ADMIT
_DENY = AdmissionDecision.DENY

#: How far past the horizon :meth:`PlatformSimulator.run` keeps the kernel
#: running, so an event the float arithmetic lands a hair beyond the horizon
#: still fires.
_HORIZON_SLACK_S = 1e-9
#: Largest gap between an expiry check's armed keep-alive deadline and the
#: sandbox's current one that still counts as the same deadline; a larger
#: gap means the sandbox served requests since the check was armed.
_KEEPALIVE_MATCH_S = 1e-6
_INF = float("inf")

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

    Pass a :class:`~repro.sim.feedback.FeedbackChannel` to close the state
    loop with the other layers: the simulator then (a) stretches busy times by
    the channel's combined service rate (re-read at every admit/completion
    event, so the CPU-bandwidth scheduler's throttling factor reaches request
    latency), and (b) gates sandbox readiness on the fleet's admission
    outcome -- a queued cold start defers ``sandbox_ready`` by its measured
    queue wait, and a rejected one fails its pending request with a typed
    :class:`~repro.platform.metrics.FailedRequest`.  Without a channel (the
    default) the simulator holds an unattached one, and behaviour is
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
        feedback: Optional[FeedbackChannel] = None,
        retry: Optional[RetryLoop] = None,
        emit_spans: bool = False,
        retain_outcomes: bool = True,
        tenant: str = "",
        admission=None,
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
        #: sandbox -> attempts waiting for its cold start to finish.
        self._pending_cold: Dict[str, List[Attempt]] = {}
        self._completion_version: Dict[str, int] = {}
        #: sandbox -> fire time of its single pending keep-alive expiry check.
        self._keepalive_pending: Dict[str, float] = {}
        self.metrics = SimulationMetrics(retain_outcomes=retain_outcomes)
        # Feedback off is an unattached channel: rate 1.0, no admission
        # state and an empty admission queue.
        self._feedback = feedback if feedback is not None else FeedbackChannel()
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
        self._kernel.run(until=horizon_s + _HORIZON_SLACK_S)
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
        pending = len(self._queue) + sum(len(waiting) for waiting in self._pending_cold.values())
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

    @property
    def _now(self) -> float:
        return self._kernel.now

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
        now = self._now
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
                    self._deny_request(request_id)
                return
        self._route(attempt)

    def resume_admission(self, attempt: Attempt) -> None:
        """Route a credit-released attempt with its original arrival metadata.

        Called by the :class:`~repro.tenancy.admission.AdmissionController`
        from inside its credit-release kernel event.  ``attempt.arrival_s``
        is the arrival that was parked, so the credit wait is visible in the
        request's latency (and SLO attainment) like any other queueing delay.
        """
        self._route(attempt)

    def _deny_request(self, request_id: str) -> None:
        """Record and publish a credit denial (terminal; nothing was routed)."""
        self.metrics.record_denied()
        self.bus.publish(
            RequestDenied(
                self._now,
                request_id,
                tenant=self._tenant,
                function_name=self.function.name,
                reason="credits",
            )
        )

    def _route(self, attempt: Attempt) -> None:
        sandbox = self._pick_sandbox()
        if sandbox is not None:
            self._admit(sandbox, attempt, cold=False)
            return
        if self._max_concurrency == 1 or not self._sandboxes:
            # Single-concurrency platforms provision a fresh sandbox per excess
            # request; multi-concurrency platforms also cold-start when scaled
            # to zero.
            self._create_sandbox(attempt)
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

    def _create_sandbox(self, attempt: Optional[Attempt] = None) -> None:
        """Cold-start a sandbox for ``attempt`` (``None``: for the autoscaler).

        An attached fleet decides admission synchronously inside the
        cold-start publish; a rejected cold start is never built, and the
        attempt it was made for fails instead of waiting for readiness.
        """
        now = self._now
        function = self.function
        init_duration = self.platform.placement_delay_s + function.init_duration_s
        # Per-simulator, zero-padded names (prefixed with the simulator name in
        # a co-simulation): runs are reproducible regardless of how many
        # sandboxes other simulations in this process created, and
        # lexicographic tie-breaks in `_pick_sandbox` match creation order.
        name = f"{self._id_prefix}sandbox-{next(self._sandbox_counter):06d}"
        self.bus.publish(
            SandboxColdStart(
                now,
                name,
                function_name=function.name,
                alloc_vcpus=function.alloc_vcpus,
                alloc_memory_gb=function.alloc_memory_gb,
                init_duration_s=init_duration,
            )
        )
        feedback = self._feedback
        state = feedback.admission_state(name)
        if state is AdmissionState.REJECTED:
            feedback.forget(name)
            self.bus.publish(SandboxTerminated(now, name, reason="admission_rejected"))
            self.metrics.record_instances(now, self._instance_count())
            if attempt is not None:
                self._fail_request(attempt, "admission_rejected", name)
            return
        self._sandboxes[name] = Sandbox(
            name=name,
            function_name=function.name,
            alloc_vcpus=function.alloc_vcpus,
            alloc_memory_gb=function.alloc_memory_gb,
            contention=self.platform.contention,
            created_s=now,
            init_duration_s=init_duration,
            runtime_workers=self.platform.concurrency.effective_workers,
        )
        self._completion_version[name] = 0
        if state is AdmissionState.QUEUED:
            # Initialisation cannot start until the sandbox lands on a host;
            # readiness is scheduled from the admission callback instead, so
            # the measured queue wait shifts `sandbox_ready` one-for-one.
            feedback.gate_readiness(name, self._on_admission_resolved)
        else:
            # ADMITTED, or None when no admission-publishing fleet is attached.
            self._kernel.schedule_in(init_duration, self._kind_sandbox_ready, {"sandbox": name})
        self.metrics.record_instances(now, self._instance_count())
        if attempt is not None:
            self._pending_cold.setdefault(name, []).append(attempt)

    def _on_admission_resolved(self, event: SimEvent) -> None:
        """Feedback-channel callback: a queued sandbox was admitted or rejected."""
        name = event.sandbox_name  # type: ignore[attr-defined]
        sandbox = self._sandboxes.get(name)
        if sandbox is None or sandbox.state is not SandboxState.INITIALIZING:
            return
        if isinstance(event, SandboxAdmitted):
            self._kernel.schedule_in(
                sandbox.init_duration_s, self._kind_sandbox_ready, {"sandbox": name}
            )
            return
        # Late rejection of a queued sandbox.  The stock fleet only rejects at
        # admission time (before any gate exists), but the channel contract
        # allows a fleet to time queue entries out, so the platform must
        # handle it: tear the sandbox down, fail everything waiting on it.
        waiting = self._pending_cold.pop(name, [])
        sandbox.terminate(self._now)
        self._discard_sandbox(sandbox)
        self.bus.publish(SandboxTerminated(self._now, name, reason="admission_rejected"))
        for attempt in waiting:
            self._fail_request(attempt, "admission_rejected", name)
        self.metrics.record_instances(self._now, self._instance_count())

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
        self._completion_version.pop(name, None)
        self._keepalive_pending.pop(name, None)
        self._feedback.forget(name)
        # Only sandboxes that became ready have a routing key (an aborted one
        # never did); a terminated sandbox has no active requests.
        routable = self._routable
        index = bisect_left(routable, (sandbox.concurrency, name))
        if index < len(routable) and routable[index][1] == name:
            del routable[index]

    def _fail_request(self, attempt: Attempt, reason: str, sandbox_name: str = "") -> None:
        # One retry decision per failed attempt: the loop's answer stamps
        # gave_up and drives the re-arrival, so the two always agree.
        # Elapsed time since the logical request's first attempt feeds the
        # policy's retry deadline.
        now = self._now
        retry = self._retry
        delay = (
            retry.next_delay(self.name, attempt.attempts, now - attempt.origin_s)
            if retry is not None
            else None
        )
        failed = FailedRequest(
            request_id=attempt.request_id,
            arrival_s=attempt.arrival_s,
            origin_s=attempt.origin_s,
            failed_s=now,
            reason=reason,
            sandbox_name=sandbox_name,
            attempts=attempt.attempts,
            retry_wait_s=attempt.retry_wait_s,
            gave_up=retry is not None and delay is None,
            tenant=self._tenant,
        )
        self.metrics.record_failure(failed)
        self.bus.publish(RequestFailed(now, failed))
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
        self.bus.publish(
            RetryScheduled(
                now,
                attempt.request_id,
                function_name=self.name,
                next_attempt=attempt.attempts + 1,
                delay_s=delay,
            )
        )

    def _handle_sandbox_ready(self, event: Event) -> None:
        sandbox = self._sandboxes.get(event.data["sandbox"])
        if sandbox is None or sandbox.state is SandboxState.TERMINATED:
            return
        sandbox.mark_ready(self._now)
        insort(self._routable, (sandbox.concurrency, sandbox.name))
        waiting = self._pending_cold.pop(sandbox.name, [])
        for attempt in waiting:
            # The request(s) that waited for this sandbox experienced the cold start.
            self._admit(sandbox, attempt, cold=True)
        self._drain_queue()
        self._maybe_schedule_keepalive(sandbox)

    def _admit(self, sandbox: Sandbox, attempt: Attempt, cold: bool) -> None:
        now = self._now
        overhead = self.platform.serving.sample_overhead_s(self.function.alloc_vcpus, self._rng)
        request = ActiveRequest(
            attempt=attempt,
            remaining_cpu_s=self.function.cpu_time_s,
            io_remaining_s=self.function.io_time_s + overhead,
            overhead_s=overhead,
            cold_start=cold,
            init_wait_s=(now - attempt.arrival_s) if cold else 0.0,
        )
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
            self.bus.publish(SandboxBusy(now, sandbox.name, sandbox.concurrency))
        self._schedule_completion_check(sandbox)

    def _refresh_rate_factor(self, sandbox: Sandbox) -> None:
        """Re-read the feedback channel's combined slowdown at event-schedule time.

        Called *after* the sandbox advanced its requests to ``now`` (so the
        interval just closed used the factor it was scheduled under) and
        *before* the next completion check is scheduled (so the projection and
        the eventual :meth:`Sandbox.advance` agree on the new rate).  With
        feedback off the channel has no modifiers and the factor stays at
        exactly ``1.0`` -- the float-identical pre-feedback behaviour.
        """
        sandbox.rate_factor = self._feedback.service_rate(self._now)

    # ------------------------------------------------------------------
    # Completion handling
    # ------------------------------------------------------------------

    def _schedule_completion_check(self, sandbox: Sandbox) -> None:
        name = sandbox.name
        version = self._completion_version[name] + 1
        self._completion_version[name] = version
        now = self._now
        next_time = sandbox.next_completion_time(now)
        if next_time is None:
            return
        self._kernel.schedule(
            max(next_time, now),
            self._kind_completion,
            {"sandbox": sandbox.name, "version": version},
        )

    def _handle_completion(self, event: Event) -> None:
        name = event.data["sandbox"]
        sandbox = self._sandboxes.get(name)
        if sandbox is None or sandbox.state is SandboxState.TERMINATED:
            return
        if event.data["version"] != self._completion_version[name]:
            return  # stale check; membership changed since it was scheduled
        now = self._now
        sandbox.advance(now)
        finished = sandbox.completed_requests()
        for request_id, request in finished.items():
            concurrency = sandbox.concurrency
            sandbox.remove(request_id, now)
            self._reindex(sandbox, concurrency)
            attempt = request.attempt
            exec_start = request.exec_start_s
            outcome = RequestOutcome(
                request_id=request_id,
                arrival_s=attempt.arrival_s,
                origin_s=attempt.origin_s,
                start_s=exec_start,
                completion_s=now,
                execution_duration_s=now - exec_start,
                cold_start=request.cold_start,
                init_duration_s=request.init_wait_s,
                queue_delay_s=max(exec_start - attempt.arrival_s - request.init_wait_s, 0.0),
                sandbox_name=sandbox.name,
                service_floor_s=self.function.service_time_s + request.overhead_s,
                attempts=attempt.attempts,
                retry_wait_s=attempt.retry_wait_s,
                tenant=self._tenant,
            )
            self.metrics.record(outcome)
            self.bus.publish(RequestCompleted(now, outcome))
        if finished:
            self._drain_queue()
            self._maybe_schedule_keepalive(sandbox)
        self._refresh_rate_factor(sandbox)
        self._schedule_completion_check(sandbox)

    def _drain_queue(self) -> None:
        """Move queued requests onto sandboxes with free capacity (FIFO)."""
        while self._queue:
            sandbox = self._pick_sandbox()
            if sandbox is None:
                return
            self._admit(sandbox, self._queue.popleft(), cold=False)

    # ------------------------------------------------------------------
    # Keep-alive and termination
    # ------------------------------------------------------------------

    def _maybe_schedule_keepalive(self, sandbox: Sandbox) -> None:
        if sandbox.state is not SandboxState.IDLE:
            return
        now = self._now
        self.bus.publish(SandboxIdle(now, sandbox.name))
        keep_alive = self.platform.keep_alive.sample_keep_alive_s(
            self._rng, scaled_out_instances=self._instance_count()
        )
        deadline = now + keep_alive
        sandbox.keep_alive_deadline_s = deadline
        name = sandbox.name
        # At most one pending expiry check per sandbox.  Scheduling one event
        # per idle transition (the old scheme) left every superseded check on
        # the heap for the full keep-alive window -- hundreds of thousands of
        # stale entries in a long busy run.  A pending *earlier* check
        # re-arms itself at the current deadline when it fires
        # (:meth:`_handle_keepalive_expire`), so only a deadline that moved
        # earlier than the pending check needs a new event.
        pending = self._keepalive_pending.get(name)
        if pending is not None and pending <= deadline:
            return
        self._keepalive_pending[name] = deadline
        self._kernel.schedule(
            deadline, self._kind_keepalive_expire, {"sandbox": name, "deadline": deadline}
        )

    def _handle_keepalive_expire(self, event: Event) -> None:
        name = event.data["sandbox"]
        checked = event.data["deadline"]
        if self._keepalive_pending.get(name) == checked:
            del self._keepalive_pending[name]
        sandbox = self._sandboxes.get(name)
        if sandbox is None or sandbox.state is not SandboxState.IDLE:
            return
        deadline = sandbox.keep_alive_deadline_s
        if abs(deadline - checked) > _KEEPALIVE_MATCH_S:
            # The sandbox served more requests since this check was armed.
            # If its current deadline lies beyond this check and nothing else
            # is pending, re-arm at that deadline -- the check this handler
            # suppressed at idle time.  (A deadline *before* this check
            # always has its own earlier pending event.)
            if deadline > checked and self._keepalive_pending.get(name, _INF) > deadline:
                self._keepalive_pending[name] = deadline
                self._kernel.schedule(
                    deadline, self._kind_keepalive_expire, {"sandbox": name, "deadline": deadline}
                )
            return
        sandbox.terminate(self._now)
        self._discard_sandbox(sandbox)
        self.bus.publish(SandboxTerminated(self._now, sandbox.name, reason="keepalive_expire"))
        self.metrics.record_instances(self._now, self._instance_count())

    # ------------------------------------------------------------------
    # Autoscaling (a periodic kernel process, registered in __init__)
    # ------------------------------------------------------------------

    def _autoscale_tick(self, now_s: float) -> None:
        alive = self._sandboxes.values()
        active_requests: float = sum(s.concurrency for s in alive) + len(self._queue)
        queue_weight = self._autoscaler.config.admission_queue_weight
        if queue_weight > 0:
            # Queue-aware autoscaling: cold starts stuck in the fleet's
            # admission queue are demand the concurrency/CPU metrics cannot
            # see (their requests are parked in _pending_cold, not executing).
            # Weigh the simulator's own share of the admission queue into the
            # scale-up signal so the autoscaler reacts to backpressure.
            active_requests += queue_weight * self._feedback.admission_queue_depth(
                self._id_prefix
            )
        busy_vcpus = fold(
            min(float(s.concurrency), s.alloc_vcpus) for s in alive if s.state is SandboxState.BUSY
        )
        self._autoscaler.observe(self._now, active_requests, busy_vcpus, len(alive))
        desired = self._autoscaler.desired_instances(self._now, len(alive))
        current = len(alive)
        if desired > current:
            for _ in range(desired - current):
                self._create_sandbox()
        elif desired < current:
            removable = [s for s in alive if s.state is SandboxState.IDLE]
            for sandbox in removable[: current - desired]:
                sandbox.terminate(self._now)
                self._discard_sandbox(sandbox)
                self.bus.publish(SandboxTerminated(self._now, sandbox.name, reason="scale_down"))
        self.metrics.record_instances(self._now, self._instance_count())
        self._drain_queue()
