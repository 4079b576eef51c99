"""The execution-feedback layer: unit, integration and hypothesis property tests.

Covers the three coupling mechanisms of the closed state loop plus the
invariants the rest of the repo relies on:

- with ``feedback="off"`` (every entry point's default) and with
  ``feedback="on"`` on an *unconstrained* cluster, runs are byte-identical --
  the loop is invisible when there is nothing to feed back;
- a throttled scheduler strictly inflates request latency at equal seeds;
- admission rejection produces typed ``FailedRequest`` outcomes bounded by
  the fleet's rejection count, and admission queueing defers sandbox
  readiness by the measured queue wait;
- a static slowdown stretches every request's latency pointwise (hypothesis
  property over traffic shapes, slowdown factors and seeds).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.cluster.placement import PlacementPolicy
from repro.platform.autoscaler import AutoscalerConfig
from repro.platform.concurrency import ConcurrencyModel
from repro.platform.config import FunctionConfig, PlatformConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.keepalive import KeepAlivePolicy, KeepAliveResourceBehavior
from repro.platform.presets import get_platform_preset
from repro.platform.serving import ServingOverheadModel
from repro.sched.cgroup import BandwidthConfig
from repro.sched.engine import SchedulerConfig, SchedulerSim
from repro.sched.task import SimTask, TaskPhase
from repro.sim.events import (
    EventBus,
    SandboxAdmitted,
    SandboxColdStart,
    SandboxQueued,
    SandboxRejected,
)
from repro.sim.feedback import (
    AdmissionState,
    FeedbackChannel,
    PublishedRate,
    ServiceTimeModifier,
    StaticSlowdown,
)
from repro.workloads.functions import PYAES_FUNCTION


# ----------------------------------------------------------------------
# Deterministic platform builders (no sampling variance anywhere, so the
# only difference between a raw and a stretched run is the feedback itself)
# ----------------------------------------------------------------------


def _deterministic_platform(keep_alive_s=1e6, autoscaler=None, max_concurrency=1):
    """A platform whose overhead and keep-alive draws are sampling-free.

    ``jitter_fraction=0`` makes the lognormal overhead collapse to its mean
    and ``min == max`` keep-alive returns the bound without drawing, so two
    runs differing only in feedback consume identical randomness *values*
    regardless of how many draws each makes.
    """
    concurrency = (
        ConcurrencyModel.single() if max_concurrency == 1 else ConcurrencyModel.multi(max_concurrency)
    )
    return PlatformConfig(
        name="deterministic",
        concurrency=concurrency,
        serving=ServingOverheadModel(
            architecture=ServingOverheadModel.api_polling().architecture,
            base_overhead_s=1e-3,
            jitter_fraction=0.0,
        ),
        keep_alive=KeepAlivePolicy(
            min_keep_alive_s=keep_alive_s,
            max_keep_alive_s=keep_alive_s,
            resource_behavior=KeepAliveResourceBehavior.FULL_ALLOCATION,
        ),
        autoscaler=autoscaler,
    )


def _function(cpu_time_s=0.2, io_time_s=0.05, init_duration_s=0.5):
    return FunctionConfig(
        name="fn",
        alloc_vcpus=1.0,
        alloc_memory_gb=1.0,
        cpu_time_s=cpu_time_s,
        io_time_s=io_time_s,
        init_duration_s=init_duration_s,
    )


# ----------------------------------------------------------------------
# FeedbackChannel unit behaviour
# ----------------------------------------------------------------------


class TestFeedbackChannel:
    def test_no_modifiers_is_exactly_full_speed(self):
        assert FeedbackChannel().service_rate(0.0) == 1.0

    def test_modifiers_compose_multiplicatively_and_clamp(self):
        channel = FeedbackChannel(min_service_rate=0.1)
        channel.set_modifier("a", StaticSlowdown(0.5))
        assert channel.service_rate(0.0) == 0.5
        channel.set_modifier("b", StaticSlowdown(0.5))
        assert channel.service_rate(0.0) == 0.25
        channel.set_modifier("c", StaticSlowdown(0.01))
        assert channel.service_rate(0.0) == 0.1  # floored at min_service_rate
        channel.remove_modifier("b")
        channel.remove_modifier("c")
        assert channel.service_rate(0.0) == 0.5

    def test_static_slowdown_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            StaticSlowdown(0.0)
        with pytest.raises(ValueError):
            StaticSlowdown(1.5)

    def test_published_rate_is_piecewise_and_floored(self):
        rate = PublishedRate()
        assert rate.service_rate(0.0) == 1.0
        rate.publish(1.0, 0.25)
        assert rate.service_rate(5.0) == 0.25
        rate.publish(2.0, 0.0)  # a zero-delivery window must not stall consumers
        assert rate.service_rate(3.0) == pytest.approx(1e-3)
        assert [t for t, _ in rate.history] == [1.0, 2.0]
        assert isinstance(rate, ServiceTimeModifier)

    def test_admission_tracking_and_prefix_depth(self):
        bus = EventBus()
        channel = FeedbackChannel().attach(bus)
        assert channel.admission_state("fn-a/sandbox-0") is None
        bus.publish(SandboxQueued(1.0, "fn-a/sandbox-0", queue_depth=1))
        bus.publish(SandboxQueued(1.5, "fn-b/sandbox-0", queue_depth=2))
        assert channel.admission_state("fn-a/sandbox-0") is AdmissionState.QUEUED
        assert channel.admission_queue_depth() == 2
        assert channel.admission_queue_depth("fn-a/") == 1
        bus.publish(SandboxAdmitted(4.0, "fn-a/sandbox-0", host_name="h", queue_wait_s=3.0))
        assert channel.admission_state("fn-a/sandbox-0") is AdmissionState.ADMITTED
        assert channel.queue_wait_s("fn-a/sandbox-0") == 3.0
        assert channel.admission_queue_depth() == 1
        bus.publish(SandboxRejected(5.0, "fn-b/sandbox-0", reason="queue_full"))
        assert channel.admission_state("fn-b/sandbox-0") is AdmissionState.REJECTED
        assert channel.admission_queue_depth() == 0

    def test_gate_fires_once_on_resolution(self):
        bus = EventBus()
        channel = FeedbackChannel().attach(bus)
        bus.publish(SandboxQueued(0.0, "s0", queue_depth=1))
        seen = []
        channel.gate_readiness("s0", seen.append)
        bus.publish(SandboxAdmitted(2.0, "s0", host_name="h", queue_wait_s=2.0))
        assert len(seen) == 1 and isinstance(seen[0], SandboxAdmitted)
        # a second resolution event does not re-fire the (consumed) gate
        bus.publish(SandboxAdmitted(3.0, "s0", host_name="h"))
        assert len(seen) == 1

    def test_gate_on_already_resolved_admission_is_an_error(self):
        bus = EventBus()
        channel = FeedbackChannel().attach(bus)
        bus.publish(SandboxRejected(0.0, "s0", reason="no_capacity"))
        with pytest.raises(ValueError):
            channel.gate_readiness("s0", lambda event: None)


# ----------------------------------------------------------------------
# Service-time stretching at the platform layer
# ----------------------------------------------------------------------


class TestServiceTimeStretching:
    def test_static_slowdown_stretches_cpu_but_not_io(self):
        function = _function(cpu_time_s=0.4, io_time_s=0.1)
        arrivals = [0.0, 10.0, 20.0]

        def run(channel):
            simulator = PlatformSimulator(
                _deterministic_platform(), function, seed=1, feedback=channel
            )
            return simulator.run(arrivals, horizon_s=100.0)

        raw = run(None)
        channel = FeedbackChannel()
        channel.set_modifier("static", StaticSlowdown(0.5))
        slow = run(channel)
        assert raw.num_requests == slow.num_requests == 3
        overhead = 1e-3  # jitter-free serving overhead at 1 vCPU
        for fast, stretched in zip(raw.requests, slow.requests):
            # CPU work runs at half speed; IO and overhead stay wall-clock.
            assert fast.execution_duration_s == pytest.approx(0.4 + 0.1 + overhead)
            assert stretched.execution_duration_s == pytest.approx(0.8 + 0.1 + overhead)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.sampled_from([0.25, 0.5, 0.8]),
        rps=st.sampled_from([1.0, 4.0, 10.0]),
        cpu_time_s=st.sampled_from([0.05, 0.3]),
    )
    def test_stretched_latency_dominates_raw_latency_pointwise(
        self, seed, rate, rps, cpu_time_s
    ):
        """Hypothesis property: slowdown never makes any request faster.

        Keep-alive is effectively infinite here: with expiry in play a
        stretched run can legitimately beat a raw run pointwise (the raw
        sandbox idles earlier, expires earlier, and a late request that hits
        it cold pays a full cold start the stretched run's still-warm sandbox
        avoids).  Without expiry, warm capacity in the stretched run is never
        better than in the raw run, so latency dominates pointwise.
        """
        from repro.workloads.traffic import constant_rate_arrivals

        function = _function(cpu_time_s=cpu_time_s, io_time_s=0.02)
        arrivals = constant_rate_arrivals(rps, 6.0)

        def run(channel):
            simulator = PlatformSimulator(
                _deterministic_platform(), function, seed=seed, feedback=channel
            )
            metrics = simulator.run(arrivals, horizon_s=500.0)
            return {r.request_id: r.end_to_end_latency_s for r in metrics.requests}

        raw = run(None)
        channel = FeedbackChannel()
        channel.set_modifier("static", StaticSlowdown(rate))
        stretched = run(channel)
        assert set(raw) == set(stretched)
        for request_id, raw_latency in raw.items():
            assert stretched[request_id] >= raw_latency - 1e-9


# ----------------------------------------------------------------------
# Cluster-level properties: off == default, on == off when unconstrained
# ----------------------------------------------------------------------


def _cluster(seed, feedback, *, policy=PlacementPolicy.BEST_FIT, max_hosts=100_000,
             queue_depth=0, host_vcpus=64.0, preset="gcp_run_like", rps=3.0,
             with_scheduler=False, quota_s=None):
    preset_config = get_platform_preset(preset)
    deployments = []
    for index in range(2):
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)
        function = dataclasses.replace(function, name=f"fn-{index:02d}")
        deployments.append(
            FunctionDeployment(
                function=function, platform=preset_config, rps=rps, duration_s=6.0
            )
        )
    scheduler = None
    if with_scheduler:
        config = SchedulerConfig(
            bandwidth=BandwidthConfig(period_s=0.1, quota_s=quota_s),
            horizon_s=8.0,
        )
        scheduler = SchedulerSim(
            config, [SimTask(phases=[TaskPhase.compute(20.0)], arrival_s=0.0, name="hog")]
        )
    return ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=host_vcpus, memory_gb=host_vcpus * 2),
            policy=policy,
            max_hosts=max_hosts,
            queue_depth=queue_depth,
            sample_interval_s=2.0,
        ),
        billing_platform="gcp_run_request",
        scheduler=scheduler,
        seed=seed,
        feedback=feedback,
    )


def _fingerprint(result):
    return json.dumps(
        {
            "summary": result.summary(),
            "timeline": result.fleet.timeline,
            "unplaceable": result.fleet.unplaceable,
        },
        sort_keys=True,
    ).encode()


class TestClusterFeedbackProperties:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        policy=st.sampled_from([PlacementPolicy.BEST_FIT, PlacementPolicy.COST_FIT]),
    )
    def test_feedback_on_is_byte_identical_when_nothing_feeds_back(self, seed, policy):
        """An unconstrained fleet + unthrottled scheduler publish no feedback,
        so the closed loop byte-reproduces the open-loop (PR-3) run."""
        off = _fingerprint(
            _cluster(seed, "off", policy=policy, with_scheduler=True, quota_s=None).run()
        )
        on = _fingerprint(
            _cluster(seed, "on", policy=policy, with_scheduler=True, quota_s=None).run()
        )
        assert off == on

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_failed_requests_bounded_by_rejected_cold_starts(self, seed):
        """Every FailedRequest traces back to one rejected sandbox admission."""
        result = _cluster(
            seed, "on", max_hosts=1, queue_depth=0, host_vcpus=1.0, preset="aws_lambda_like", rps=6.0
        ).run()
        summary = result.summary()
        rejected = (
            summary["rejected_no_capacity"]
            + summary["rejected_queue_full"]
            + summary["rejected_oversized"]
        )
        assert summary["failed_requests"] <= rejected
        failures = [f for m in result.metrics.values() for f in m.failures]
        assert len(failures) == summary["failed_requests"]
        assert all(f.reason == "admission_rejected" for f in failures)

    def test_saturated_cluster_surfaces_failures_and_inflation(self):
        """Acceptance criterion: a capacity-bound closed-loop run reports both
        nonzero failed requests and nonzero latency inflation."""
        result = _cluster(
            7, "on", max_hosts=1, queue_depth=0, host_vcpus=1.0, preset="aws_lambda_like", rps=6.0
        ).run()
        summary = result.summary()
        assert summary["failed_requests"] > 0
        assert summary["latency_inflation"] > 0

    def test_feedback_off_reports_no_failures_on_the_same_saturated_cluster(self):
        result = _cluster(
            7, "off", max_hosts=1, queue_depth=0, host_vcpus=1.0, preset="aws_lambda_like", rps=6.0
        ).run()
        summary = result.summary()
        assert summary["failed_requests"] == 0.0
        assert summary["rejected_no_capacity"] > 0  # backpressure existed, it was just invisible


class TestSchedulerThrottleCoupling:
    def test_throttled_cosim_inflates_latency_at_equal_seeds(self):
        """Acceptance criterion: throttling strictly raises mean request latency."""
        unthrottled = _cluster(3, "on", with_scheduler=True, quota_s=None).run().summary()
        throttled = _cluster(3, "on", with_scheduler=True, quota_s=0.03).run().summary()
        assert throttled["num_requests"] == unthrottled["num_requests"]
        assert throttled["mean_latency_ms"] > unthrottled["mean_latency_ms"]
        assert throttled["latency_inflation"] > unthrottled["latency_inflation"]
        # the stretched durations are what the live meter bills
        assert throttled["cost_usd"] > unthrottled["cost_usd"]

    def test_feedback_off_throttling_stays_invisible(self):
        off_unthrottled = _cluster(3, "off", with_scheduler=True, quota_s=None).run().summary()
        off_throttled = _cluster(3, "off", with_scheduler=True, quota_s=0.03).run().summary()
        assert off_throttled["mean_latency_ms"] == pytest.approx(
            off_unthrottled["mean_latency_ms"]
        )

    def test_attached_scheduler_results_unchanged_by_feedback(self):
        """Publishing feedback must not perturb the engine's own outcome."""
        with_fb = _cluster(5, "on", with_scheduler=True, quota_s=0.03).run()
        without_fb = _cluster(5, "off", with_scheduler=True, quota_s=0.03).run()
        assert with_fb.scheduler is not None and without_fb.scheduler is not None
        for name, task in with_fb.scheduler.tasks.items():
            other = without_fb.scheduler.tasks[name]
            assert task.cpu_consumed_s == other.cpu_consumed_s
            assert task.run_segments == other.run_segments
            assert task.throttle_segments == other.throttle_segments


class TestQueuedReadinessDeferral:
    def test_queue_wait_shifts_sandbox_readiness_one_for_one(self):
        """A queued cold start's requests wait queue time + init, not just init."""
        preset = get_platform_preset("aws_lambda_like")
        # Shrink keep-alive so capacity releases mid-run and the queue drains.
        keep_alive = dataclasses.replace(
            preset.keep_alive, min_keep_alive_s=1.0, max_keep_alive_s=1.0
        )
        platform = dataclasses.replace(preset, keep_alive=keep_alive)
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5), name="fn-00"
        )
        simulator = ClusterSimulator(
            [FunctionDeployment(function=function, platform=platform, rps=6.0, duration_s=4.0)],
            fleet_config=FleetConfig(
                host_spec=HostSpec(vcpus=1.0, memory_gb=2.0),
                max_hosts=1,
                queue_depth=8,
                sample_interval_s=2.0,
            ),
            seed=11,
            feedback="on",
        )
        result = simulator.run(horizon_s=60.0)
        fleet = result.fleet
        assert fleet.admitted_from_queue > 0
        channel = simulator.feedback
        init_s = platform.placement_delay_s + function.init_duration_s
        outcomes = {r.sandbox_name: r for m in result.metrics.values() for r in m.requests}
        deferred = 0
        for name, outcome in outcomes.items():
            wait = channel.queue_wait_s(name)
            if wait <= 0 or not outcome.cold_start:
                continue
            deferred += 1
            # init wait as seen by the request = queue wait + initialisation
            assert outcome.init_duration_s == pytest.approx(wait + init_s, abs=1e-6)
        assert deferred > 0


class TestHorizonCensoredBackpressure:
    def test_requests_still_queued_at_the_horizon_are_reported_pending(self):
        """Backpressure that outlives the run must not vanish from accounting.

        A fleet with queueing enabled but zero capacity release keeps every
        cold start queued forever: nothing completes, nothing is rejected.
        The summary reports those requests as pending rather than showing a
        silent zero across the board.
        """
        result = _cluster(
            9, "on", max_hosts=0, queue_depth=64, host_vcpus=1.0,
            preset="aws_lambda_like", rps=4.0,
        ).run()
        summary = result.summary()
        assert summary["num_requests"] == 0.0
        assert summary["failed_requests"] == 0.0
        assert summary["pending_requests"] > 0
        assert summary["pending_requests"] == summary["queued"] - summary["admitted_from_queue"]


class TestInstanceBillingExcludesQueueWait:
    def test_admission_rebases_the_instance_start(self):
        from repro.billing.meter import CostMeter

        bus = EventBus()
        meter = CostMeter("gcp_run_instance").attach(bus).attach_admissions(bus)
        bus.publish(SandboxColdStart(0.0, "s0", alloc_vcpus=1.0, alloc_memory_gb=2.0))
        # Queued for 5 s, then admitted: the billed lifespan starts at 5.0.
        bus.publish(SandboxAdmitted(5.0, "s0", host_name="h", queue_wait_s=5.0))
        meter.finalize(8.0)
        assert meter.instance_seconds == pytest.approx(3.0)

    def test_direct_placement_lifespan_is_unchanged(self):
        from repro.billing.meter import CostMeter

        bus = EventBus()
        meter = CostMeter("gcp_run_instance").attach(bus).attach_admissions(bus)
        bus.publish(SandboxColdStart(1.0, "s0", alloc_vcpus=1.0, alloc_memory_gb=2.0))
        bus.publish(SandboxAdmitted(1.0, "s0", host_name="h"))  # same-instant admission
        meter.finalize(8.0)
        assert meter.instance_seconds == 7.0

    def test_never_admitted_sandbox_bills_nothing(self):
        """A sandbox queued until the horizon spent its whole life off-host.

        Its entire "lifespan" is admission-queue wait -- exactly what the
        gate excludes from invoices -- so closing it must bill zero, not the
        cold-start-to-horizon span.
        """
        from repro.billing.meter import CostMeter

        bus = EventBus()
        meter = CostMeter("gcp_run_instance").attach(bus).attach_admissions(bus)
        bus.publish(SandboxColdStart(0.0, "s0", alloc_vcpus=1.0, alloc_memory_gb=2.0))
        meter.finalize(8.0)  # still queued: never admitted
        assert meter.instance_seconds == 0.0
        assert meter.cost_usd == 0.0
        assert meter.instances_started == meter.instances_closed == 1

    def test_zero_capacity_closed_loop_cluster_bills_no_instance_time(self):
        """End to end: a queue that never drains produces a zero invoice.

        With instance billing and feedback on, every cold start queues
        forever (zero-capacity fleet), so no sandbox ever lands on a host --
        the run must invoice nothing rather than billing each sandbox's
        cold-start-to-horizon queue wait.
        """
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5), name="fn-00"
        )
        simulator = ClusterSimulator(
            [
                FunctionDeployment(
                    function=function,
                    platform=get_platform_preset("aws_lambda_like"),
                    rps=4.0,
                    duration_s=6.0,
                )
            ],
            fleet_config=FleetConfig(
                host_spec=HostSpec(vcpus=1.0, memory_gb=2.0),
                max_hosts=0,
                queue_depth=64,
                sample_interval_s=2.0,
            ),
            billing_platform="gcp_run_instance",
            seed=9,
            feedback="on",
        )
        result = simulator.run()
        assert result.summary()["pending_requests"] > 0  # queued forever
        assert result.meter.instance_seconds == 0.0
        assert result.meter.cost_usd == 0.0


class TestRejectionAfterQueueing:
    def test_rejected_while_queued_fails_the_pending_request(self):
        """The gate's rejection branch: queue first, reject later.

        The stock fleet never rejects an already-queued sandbox, but the
        channel contract allows it (a future fleet could time queue entries
        out), so the platform must handle a late rejection: tear the sandbox
        down and fail the requests that were waiting on it.
        """
        fleet_bus = EventBus()
        channel = FeedbackChannel().attach(fleet_bus)
        simulator = PlatformSimulator(
            _deterministic_platform(), _function(), seed=0, feedback=channel
        )
        # A stand-in fleet: every cold start is queued immediately.
        simulator.bus.subscribe(
            SandboxColdStart,
            lambda event: fleet_bus.publish(
                SandboxQueued(event.time_s, event.sandbox_name, queue_depth=1)
            ),
        )
        simulator.run([0.0], horizon_s=5.0)
        assert simulator.metrics.num_requests == 0  # still parked behind the gate
        name = next(iter(simulator._sandboxes))
        fleet_bus.publish(SandboxRejected(5.0, name, reason="queue_timeout"))
        assert simulator.metrics.failed_requests == 1
        failure = simulator.metrics.failures[0]
        assert failure.reason == "admission_rejected"
        assert failure.sandbox_name == name
        # Failure is stamped with the kernel clock (in a co-simulation the
        # gate fires inside a kernel event; here the clock never advanced).
        assert failure.failed_s == simulator.kernel.now
        # The aborted sandbox is gone from the pool and cannot serve.
        assert simulator._instance_count() == 0


class TestConfigValidationAndMetricsEdges:
    def test_cluster_simulator_rejects_unknown_feedback_mode(self):
        preset = get_platform_preset("gcp_run_like")
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0), name="fn-00"
        )
        deployment = FunctionDeployment(function=function, platform=preset)
        with pytest.raises(ValueError):
            ClusterSimulator([deployment], feedback="bogus")

    def test_autoscaler_config_rejects_negative_queue_weight(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(admission_queue_weight=-1.0)

    def test_latency_inflation_edge_cases(self):
        from repro.platform.metrics import RequestOutcome, SimulationMetrics

        empty = SimulationMetrics()
        assert empty.latency_inflation() != empty.latency_inflation()  # NaN
        no_floor = SimulationMetrics()
        no_floor.record(
            RequestOutcome(
                request_id="r0", arrival_s=0.0, origin_s=0.0, start_s=0.0, completion_s=1.0,
                execution_duration_s=1.0, cold_start=False, init_duration_s=0.0,
                queue_delay_s=0.0, sandbox_name="s",
            )
        )
        # pre-feedback records carry no floor: inflation degrades to 0, not inf
        assert no_floor.latency_inflation() == 0.0
        assert no_floor.summary()["latency_inflation"] == 0.0


# ----------------------------------------------------------------------
# Queue-aware autoscaling (AutoscalerConfig.admission_queue_weight)
# ----------------------------------------------------------------------


class TestQueueAwareAutoscaling:
    def _simulator(self, weight):
        autoscaler = AutoscalerConfig(
            metric_window_s=4.0,
            evaluation_interval_s=1.0,
            min_instances=0,
            max_instances=50,
            scale_down_delay_s=30.0,
            panic_threshold=0.0,
            admission_queue_weight=weight,
        )
        platform = _deterministic_platform(autoscaler=autoscaler, max_concurrency=10)
        bus = EventBus()
        channel = FeedbackChannel().attach(bus)
        simulator = PlatformSimulator(platform, _function(), seed=0, feedback=channel)
        return simulator, bus

    def test_scales_up_on_admission_queue_depth_with_hysteresis(self):
        simulator, bus = self._simulator(weight=10.0)
        # Three sandboxes stuck in the fleet admission queue, no traffic at all.
        for index in range(3):
            bus.publish(SandboxQueued(0.0, f"sandbox-q{index}", queue_depth=index + 1))
        simulator.schedule_arrivals([], horizon_s=0.0)
        simulator.kernel.run(until=6.0)
        scaled_to = simulator._instance_count()
        # signal = weight * depth = 30 -> ceil(30 / (0.7 * 10)) = 5 instances
        assert scaled_to == 5
        # Queue drains: hysteresis holds the pool for scale_down_delay_s...
        for index in range(3):
            bus.publish(SandboxAdmitted(6.0, f"sandbox-q{index}", host_name="h", queue_wait_s=6.0))
        simulator.kernel.run(until=20.0)
        assert simulator._instance_count() == scaled_to
        # ...and only then releases it.
        simulator.kernel.run(until=60.0)
        assert simulator._instance_count() == 0

    def test_zero_weight_ignores_the_admission_queue(self):
        simulator, bus = self._simulator(weight=0.0)
        for index in range(3):
            bus.publish(SandboxQueued(0.0, f"sandbox-q{index}", queue_depth=index + 1))
        simulator.schedule_arrivals([], horizon_s=0.0)
        simulator.kernel.run(until=6.0)
        assert simulator._instance_count() == 0
