"""Cluster co-simulation: many functions, one kernel, live fleet + cost metering.

This module composes the layers the repo previously kept separate into one
event loop:

- one :class:`~repro.platform.invoker.PlatformSimulator` per deployed
  function, all sharing a single :class:`~repro.sim.kernel.SimulationKernel`
  (their autoscalers are periodic kernel processes, their event kinds are
  namespaced by function name);
- a :class:`~repro.cluster.fleet.Fleet` every simulator calls directly,
  placing each cold-started sandbox onto (possibly heterogeneous,
  multi-zone) hosts under a placement policy, queueing unplaceable sandboxes
  when admission backpressure is enabled, and releasing capacity on
  eviction -- the provider-side view;
- a :class:`~repro.billing.meter.CostMeter` per function bus, invoicing each
  completed request incrementally through the Table-1 billing models -- the
  user-side view, metered live instead of post-hoc.  The meter is also
  attached to the fleet, so the ``COST_FIT``-relevant provider spend and the
  live user invoice are sampled on one timeline;
- optionally, a :class:`~repro.sched.engine.SchedulerSim` registered as a
  process on the same kernel, so CPU-bandwidth scheduling decisions
  (tick accounting, cgroup throttling, task placement) co-simulate with the
  serving, fleet and billing layers instead of running in a separate loop.

The result is the cross-layer instrument the paper's cost findings call for:
keep-alive policy, placement density, admission backpressure, scheduler
throttling and billing model interact inside one simulated timeline, with
costs and fleet utilisation read off as they accrue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.billing.meter import CostMeter, RequestResources
from repro.cluster.fleet import Fleet, FleetConfig
from repro.numeric import fold
from repro.obs import Observability
from repro.platform.config import FunctionConfig, PlatformConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.metrics import SimulationMetrics
from repro.sched.engine import SchedulerSim, SimulationResult
from repro.sim.arrivals import ARRIVAL_PROCESSES, ArrivalSource, ConstantRateSource, PoissonSource
from repro.sim.events import EventBus
from repro.sim.feedback import PublishedRate
from repro.sim.kernel import HORIZON_SLACK_S, SimulationKernel
from repro.sim.retry import RetryLoop, RetryPolicy
from repro.sim.rng import derive_seed
from repro.tenancy import AdmissionController, TenancyReport, TenantConfig, TenantReport

__all__ = ["FEEDBACK_MODES", "FunctionDeployment", "ClusterResult", "ClusterSimulator"]

#: The values of :class:`ClusterSimulator`'s ``feedback`` switch.
FEEDBACK_MODES = ("off", "on")


@dataclass(frozen=True)
class FunctionDeployment:
    """One function deployed into the cluster, with its traffic."""

    function: FunctionConfig
    platform: PlatformConfig
    rps: float = 1.0
    duration_s: float = 60.0
    arrival_process: str = "constant"  # one of ARRIVAL_PROCESSES

    def __post_init__(self) -> None:
        if self.rps <= 0 or self.duration_s < 0:
            raise ValueError("rps must be positive and duration_s >= 0")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {self.arrival_process!r}")

    def resources(self) -> RequestResources:
        """The per-request billing context of this deployment."""
        return RequestResources.from_function(self.function)


@dataclass
class ClusterResult:
    """Everything one cluster co-simulation produced."""

    horizon_s: float
    metrics: Dict[str, SimulationMetrics]
    fleet: Fleet
    meter: Optional[CostMeter]
    scheduler: Optional[SimulationResult] = None
    retry: Optional[RetryLoop] = None
    #: Per-tenant fairness/SLO report (None without tenants, keeping
    #: tenant-less summary rows byte-identical to the pre-tenancy output).
    tenancy: Optional[TenancyReport] = None

    def summary(self) -> Dict[str, float]:
        """One flat row combining request-, fleet-, cost- and scheduler-level outcomes."""
        num_requests = sum(m.num_requests for m in self.metrics.values())
        cold_starts = sum(m.cold_starts for m in self.metrics.values())
        failed = sum(m.failed_requests for m in self.metrics.values())
        durations: List[float] = []
        latencies: List[float] = []
        floor_s = 0.0
        for m in self.metrics.values():
            durations.extend(m.execution_durations_s())
            latencies.extend(m.end_to_end_latencies_s())
            # Incremental per-function floor sums: each accumulates in the
            # same completion order the old per-request walk summed in, so
            # the combined value is bit-identical.
            floor_s += m.service_floor_sum_s
        latency_s = fold(latencies)
        row: Dict[str, float] = {
            "num_functions": float(len(self.metrics)),
            "num_requests": float(num_requests),
            "failed_requests": float(failed),
            "pending_requests": float(
                sum(m.pending_requests for m in self.metrics.values())
            ),
            "cold_start_rate": cold_starts / num_requests if num_requests else 0.0,
            "mean_duration_ms": (fold(durations) / len(durations) * 1e3) if durations else 0.0,
            "mean_latency_ms": (latency_s / len(latencies) * 1e3) if latencies else 0.0,
            # Aggregate end-to-end latency above the uncontended service
            # floor: 0 = every request at its floor, 1 = latency doubled.
            # Cold starts, admission queueing, contention and feedback-layer
            # throttling all show up here.
            "latency_inflation": (latency_s - floor_s) / floor_s if floor_s > 0 else 0.0,
        }
        if self.retry is not None:
            # Retry-layer columns exist only when a retry loop ran, so
            # retry=None rows -- and their CSVs -- stay byte-identical to the
            # pre-retry output.
            arrivals = sum(m.arrivals for m in self.metrics.values())
            retried = sum(m.retry_arrivals for m in self.metrics.values())
            initial = arrivals - retried
            # Integer-exact terminal attempt aggregates (completed attempts
            # accumulated at record time, gave-up attempts off the failure
            # records): same mean as summing attempt_counts(), without
            # needing retained per-request outcomes.
            attempts_sum = 0
            terminal = 0
            for m in self.metrics.values():
                function_sum, function_count = m.terminal_attempt_stats()
                attempts_sum += function_sum
                terminal += function_count
            row["retried_requests"] = float(retried)
            row["gave_up_requests"] = float(
                sum(m.gave_up_requests for m in self.metrics.values())
            )
            row["mean_attempts"] = attempts_sum / terminal if terminal else 0.0
            # Load amplification the fleet actually absorbed: arrivals per
            # organic arrival (1.0 = nothing retried).
            row["retry_amplification"] = arrivals / initial if initial else 1.0
        row.update(self.fleet.summary())
        if self.meter is not None:
            totals = self.meter.totals()
            row["billing_platform"] = totals["platform"]
            for key in (
                "cost_usd",
                "billable_cpu_seconds",
                "billable_memory_gb_seconds",
                "invocation_fee_usd",
                "instance_seconds",
                "idle_instance_seconds",
            ):
                row[key] = totals[key]
        if self.tenancy is not None:
            # Tenancy columns exist only on multi-tenant runs; tenants=None
            # rows -- and their CSVs -- stay byte-identical.
            row.update(self.tenancy.summary_columns())
        if self.scheduler is not None:
            finished = [t for t in self.scheduler.tasks.values() if t.finished]
            row["sched_tasks"] = float(len(self.scheduler.tasks))
            row["sched_finished"] = float(len(finished))
            row["sched_mean_duration_s"] = (
                fold(t.duration_s for t in finished) / len(finished) if finished else 0.0
            )
            row["sched_cpu_consumed_s"] = fold(
                t.cpu_consumed_s for t in self.scheduler.tasks.values()
            )
            row["sched_throttle_time_s"] = fold(
                duration
                for t in self.scheduler.tasks.values()
                for _, duration in t.throttle_segments
            )
        return row


class ClusterSimulator:
    """Co-simulates a set of function deployments over one shared kernel.

    Pass ``scheduler`` (an un-run :class:`~repro.sched.engine.SchedulerSim`)
    to register the CPU-bandwidth scheduling engine as a process on the
    cluster kernel: its ticks, period refills and throttling decisions
    then interleave with arrivals, cold starts, fleet placement and billing
    in one deterministic event order.  The run horizon is extended to the
    scheduler's own ``horizon_s`` so it always reaches its standalone result.

    ``feedback`` closes the *state* loop between those layers (the default
    ``"off"`` byte-reproduces the share-a-clock-only behaviour of every
    existing entry point).  ``feedback="on"`` is three wirings: one
    :class:`~repro.sim.feedback.PublishedRate` handed to the scheduler
    (``attach(kernel, rate=)``) and to every simulator (``rate=``), so the
    scheduler's throttling stretches request busy times (and therefore the
    durations the cost meter bills) and each simulator acts on the fleet's
    admission answers -- a queued cold start defers its sandbox's readiness
    by the measured admission-queue wait, and a rejected cold start fails
    its pending request; and the meter's ``attach_admissions``, so
    instance-billed lifespans start at admission.  All of it is visible in
    the ``failed_requests`` / ``latency_inflation`` summary columns.  With
    ``"off"`` none of the three is made.

    ``retry`` (a :class:`~repro.sim.retry.RetryPolicy`) models clients that
    retry failed requests: every simulator asks one shared
    :class:`~repro.sim.retry.RetryLoop` per failed attempt and re-schedules
    each non-terminal failure as a fresh arrival after exponential
    seed-derived backoff, so rejected load comes back and re-loads the fleet
    (visible in the ``retried_requests`` / ``mean_attempts`` /
    ``gave_up_requests`` / ``retry_amplification`` summary columns).
    Requests only *fail* when the feedback layer is on; with
    ``feedback="off"`` a retry policy is inert.  ``retry=None`` (the default)
    byte-reproduces the pre-retry outputs.

    ``obs`` (an :class:`~repro.obs.Observability`) attaches the passive
    observability layer: a trace collector stitching per-request spans off
    the shared bus, a telemetry process sampling every layer's live gauges
    on the kernel grid, and an opt-in kernel profiler.  Observers only read,
    so a run with ``obs`` attached produces byte-identical results to the
    same seed without it; ``obs=None`` (the default) does not even subscribe.

    ``tenants`` (a sequence of :class:`~repro.tenancy.model.TenantConfig`)
    turns on the multi-tenant admission layer: an
    :class:`~repro.tenancy.admission.AdmissionController` on the shared
    kernel meters every deployment's arrivals against its tenant's credit
    account *before* routing (denying or credit-queueing exhausted tenants),
    per-simulator SLO targets come from the owning tenant's config, and the
    run result carries a :class:`~repro.tenancy.metrics.TenancyReport` with
    per-tenant SLO attainment, goodput, invoice share and Jain's fairness
    index (surfaced as extra summary columns).  Deployments are assigned to
    tenants round-robin over the tenant list, in deployment order.
    ``tenants=None`` (the default) byte-reproduces the pre-tenancy outputs.
    """

    def __init__(
        self,
        deployments: Sequence[FunctionDeployment],
        fleet_config: Optional[FleetConfig] = None,
        billing_platform: Optional[str] = None,
        scheduler: Optional[SchedulerSim] = None,
        seed: int = 0,
        feedback: str = "off",
        retry: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
        retain_outcomes: bool = True,
        tenants: Optional[Sequence[TenantConfig]] = None,
    ) -> None:
        if not deployments:
            raise ValueError("a cluster simulation needs at least one deployment")
        names = [d.function.name for d in deployments]
        if len(set(names)) != len(names):
            raise ValueError(f"deployment function names must be unique, got {names}")
        if feedback not in FEEDBACK_MODES:
            raise ValueError(f"feedback must be 'off' or 'on', got {feedback!r}")
        self.deployments = list(deployments)
        self.seed = seed
        self._ran = False
        self.kernel = SimulationKernel()
        #: The shared bus every simulator forwards its events to.
        self.bus = EventBus()
        #: Passive observability: trace collector, telemetry sampler and
        #: kernel profiler subscribe to the shared bus/kernel here, *before*
        #: any domain subscriber exists -- observers only read, so their
        #: position in dispatch order cannot change simulation state.
        self.obs = obs
        if obs is not None:
            obs.attach(self.kernel, self.bus)
        #: The scheduler's published service rate every simulator reads
        #: (None with feedback="off").
        self.rate: Optional[PublishedRate] = PublishedRate() if feedback == "on" else None
        #: The client retry loop (None without a retry policy).  Its backoff
        #: stream seed derives from the run seed, so retry timing replays
        #: byte-identically from the same seed.
        self.retry: Optional[RetryLoop] = (
            RetryLoop(retry, seed=derive_seed(seed, "retry"))
            if retry is not None
            else None
        )
        self.fleet = Fleet(fleet_config).attach(self.bus)
        if self.fleet.config.sample_interval_s is not None:
            self.kernel.add_process(self.fleet)
        self.meter: Optional[CostMeter] = (
            CostMeter(billing_platform) if billing_platform is not None else None
        )
        if self.meter is not None:
            # The fleet samples the live invoice next to its own host spend.
            self.fleet.attach_meter(self.meter)
            if self.rate is not None:
                # Closed loop: a queued sandbox is not on a host until the
                # fleet admits it, so instance-billed lifespans start at
                # admission rather than at the cold-start request.
                self.meter.attach_admissions(self.bus)
        self.scheduler = scheduler
        if scheduler is not None:
            scheduler.attach(self.kernel, rate=self.rate)
        #: The multi-tenant admission controller (None without tenants).
        self.admission: Optional[AdmissionController] = None
        self._tenant_of: Dict[str, str] = {}
        if tenants is not None:
            self.admission = AdmissionController(tenants).attach(self.kernel)
            self._tenant_of = self._assign_tenants()
        self.simulators: Dict[str, PlatformSimulator] = {}
        for deployment in self.deployments:
            name = deployment.function.name
            tenant = self._tenant_of.get(name, "")
            simulator = PlatformSimulator(
                deployment.platform,
                deployment.function,
                seed=derive_seed(seed, "cluster", name),
                bus=self.bus,
                kernel=self.kernel,
                name=name,
                rate=self.rate,
                retry=self.retry,
                # Request-level span markers are only worth publishing when a
                # collector is listening on the shared bus.
                emit_spans=obs is not None,
                # retain_outcomes=False drops per-request outcome objects while
                # keeping every incremental aggregate summary() reads -- the
                # bounded-memory mode million-request benchmark runs use.
                retain_outcomes=retain_outcomes,
                tenant=tenant,
                admission=self.admission,
                fleet=self.fleet,
            )
            if self.meter is not None:
                # Per-function attachment: the meter needs each deployment's
                # allocation/usage context, which the shared bus does not carry.
                self.meter.attach(simulator.bus, deployment.resources())
            if self.admission is not None:
                self.admission.register(name, tenant, simulator)
                # SLO attainment is judged in the metrics layer at record
                # time, against the owning tenant's latency target.
                simulator.metrics.slo_latency_s = self.admission.config(tenant).slo_latency_s
            self.simulators[name] = simulator
        if obs is not None:
            self._register_gauges(obs)

    def _assign_tenants(self) -> Dict[str, str]:
        """Map each deployment to its tenant, round-robin in deployment order."""
        assert self.admission is not None
        tenant_names = self.admission.tenant_names
        return {
            deployment.function.name: tenant_names[index % len(tenant_names)]
            for index, deployment in enumerate(self.deployments)
        }

    def _register_gauges(self, obs: Observability) -> None:
        """Wire every layer's live state into the telemetry registry.

        All gauges are pure reads of state the layers maintain anyway;
        sampling them on the telemetry grid cannot perturb the simulation.
        """
        self.fleet.register_metrics(obs.registry)
        if self.meter is not None:
            self.meter.register_metrics(obs.registry)
        if self.scheduler is not None:
            self.scheduler.register_metrics(obs.registry)
        if self.retry is not None:
            self.retry.register_metrics(obs.registry)
            # Retry backlog: re-injections scheduled but not yet re-arrived
            # (or censored past the horizon).
            obs.registry.gauge(
                "retry_backlog",
                fn=lambda: float(self.retry.retries_scheduled)
                - float(sum(s.metrics.retry_arrivals for s in self.simulators.values())),
            )
        obs.registry.gauge(
            "in_flight_requests",
            fn=lambda: float(
                sum(s.in_flight_request_count for s in self.simulators.values())
            ),
        )
        obs.registry.gauge(
            "pending_requests",
            fn=lambda: float(
                sum(s.pending_request_count for s in self.simulators.values())
            ),
        )

    def _arrivals(self, deployment: FunctionDeployment) -> ArrivalSource:
        """The deployment's traffic as a chunked arrival source.

        Sources are *streamed* into the shared kernel (vectorized generation,
        bounded heap memory) and byte-identical to the materialized lists the
        simulator previously scheduled eagerly: a Poisson source consumes the
        same seed-derived RNG stream as
        :func:`repro.workloads.traffic.poisson_arrivals`.
        """
        if deployment.arrival_process == "poisson":
            return PoissonSource(
                deployment.rps,
                deployment.duration_s,
                seed=derive_seed(self.seed, "cluster", deployment.function.name, "arrivals"),
            )
        return ConstantRateSource(deployment.rps, deployment.duration_s)

    def run(self, horizon_s: Optional[float] = None) -> ClusterResult:
        """Schedule every deployment's traffic and run the shared kernel once."""
        if self._ran:
            # Re-scheduling arrivals into the already-advanced kernel would
            # silently double every metric; make the misuse loud instead.
            raise RuntimeError("ClusterSimulator.run() can only be called once per instance")
        self._ran = True
        horizon = 0.0
        for deployment in self.deployments:
            simulator = self.simulators[deployment.function.name]
            horizon = max(horizon, simulator.schedule_arrivals(self._arrivals(deployment)))
        if self.scheduler is not None:
            horizon = max(horizon, self.scheduler.config.horizon_s)
        if horizon_s is not None:
            horizon = horizon_s
        self.kernel.run(until=horizon + HORIZON_SLACK_S)
        for simulator in self.simulators.values():
            simulator.metrics.pending_requests = simulator.pending_request_count
        if self.meter is not None:
            self.meter.finalize(horizon)
        if self.obs is not None:
            self.obs.finalize(horizon)
        return ClusterResult(
            horizon_s=horizon,
            metrics={name: sim.metrics for name, sim in self.simulators.items()},
            fleet=self.fleet,
            meter=self.meter,
            scheduler=self.scheduler.finalize() if self.scheduler is not None else None,
            retry=self.retry,
            tenancy=self._build_tenancy_report() if self.admission is not None else None,
        )

    def _build_tenancy_report(self) -> TenancyReport:
        """Fold per-simulator metrics, controller counters and the invoice by tenant.

        Called at the run horizon (pending counts are snapshotted, the meter
        finalized), so each tenant's report closes the conservation law:
        ``arrivals == completed + failed + denied + pending + in-flight``.
        """
        admission = self.admission
        assert admission is not None
        by_tenant_cost = self.meter.cost_usd_by_tenant if self.meter is not None else {}
        reports = []
        for tenant in admission.tenant_names:
            config = admission.config(tenant)
            owners = [owner for owner, t in self._tenant_of.items() if t == tenant]
            arrivals = completed = failed = denied = pending = in_flight = attained = 0
            for owner in owners:
                simulator = self.simulators[owner]
                m = simulator.metrics
                arrivals += m.arrivals
                completed += m.num_requests
                failed += m.failed_requests
                denied += m.denied_requests
                pending += simulator.pending_request_count
                in_flight += simulator.in_flight_request_count
                # Without a latency target every completion attains trivially.
                attained += m.slo_attained if config.slo_latency_s is not None else m.num_requests
            reports.append(
                TenantReport(
                    name=tenant,
                    functions=len(owners),
                    arrivals=arrivals,
                    completed=completed,
                    failed=failed,
                    denied=denied,
                    pending=pending,
                    in_flight=in_flight,
                    slo_target_s=config.slo_latency_s,
                    slo_attained=attained,
                    billed_usd=by_tenant_cost.get(tenant, 0.0),
                    credits_spent=admission.credits_spent[tenant],
                    weight=config.weight,
                )
            )
        return TenancyReport(tenants=reports)
