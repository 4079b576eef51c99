"""The client retry loop: unit, integration and hypothesis property tests.

Covers the policy arithmetic, the loop's one-decision-per-failure contract,
and the invariants the rest of the repo relies on:

- attempt counts never exceed ``max_attempts``, and ``gave_up`` implies the
  attempts were exhausted or the function's retry budget was spent;
- a retry-on run replays byte-identically from its seed, and ``retry=None``
  (plus a retry loop with nothing to do) byte-reproduces the pre-retry
  summary -- the PR-4 behaviour;
- for requests completed in both runs, retry-on latency dominates retry-off
  latency pointwise (retry load can slow or starve organic traffic, never
  speed it up);
- retries re-enter the admission path: amplified load shows up in fleet
  cold-start/queue counters, the feedback channel's admission-queue depth,
  and the cost meter's per-attempt invoice.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.platform.concurrency import ConcurrencyModel
from repro.platform.config import FunctionConfig, PlatformConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.keepalive import KeepAlivePolicy, KeepAliveResourceBehavior
from repro.platform.presets import get_platform_preset
from repro.platform.serving import ServingOverheadModel
from repro.sim.events import (
    EventBus,
    RequestFailed,
    RetryScheduled,
    SandboxColdStart,
    SandboxRejected,
)
from repro.sim.feedback import FeedbackChannel
from repro.sim.params import from_mapping
from repro.sim.retry import RetryLoop, RetryParams, RetryPolicy
from repro.workloads.functions import PYAES_FUNCTION

RETRY_POLICY = RetryPolicy(max_attempts=3, base_backoff_s=0.3, jitter=0.1)


# ----------------------------------------------------------------------
# RetryPolicy unit behaviour
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=2.0, max_backoff_s=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(retry_budget=-1)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_backoff_s=1.0, backoff_multiplier=2.0,
                             max_backoff_s=5.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff_s(1, rng) == 1.0
        assert policy.backoff_s(2, rng) == 2.0
        assert policy.backoff_s(3, rng) == 4.0
        assert policy.backoff_s(4, rng) == 5.0  # capped
        with pytest.raises(ValueError):
            policy.backoff_s(0, rng)

    def test_zero_jitter_consumes_no_randomness(self):
        policy = RetryPolicy(jitter=0.0)
        rng = np.random.default_rng(42)
        before = rng.bit_generator.state
        policy.backoff_s(1, rng)
        assert rng.bit_generator.state == before

    def test_jitter_is_bounded_and_seed_deterministic(self):
        policy = RetryPolicy(base_backoff_s=1.0, jitter=0.5)
        draws = [policy.backoff_s(1, np.random.default_rng(7)) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]  # same seed, same delay
        for _ in range(50):
            delay = policy.backoff_s(1, np.random.default_rng(np.random.randint(1 << 30)))
            assert 1.0 <= delay <= 1.5

    def test_from_params_defaults_and_overrides(self):
        # The grid's retry section is parsed at the params boundary; its
        # defaults are the policy's own.
        assert from_mapping(RetryParams, {"retry": "on"}).policy() == RetryPolicy()
        policy = from_mapping(
            RetryParams,
            {"retry": "on", "retry_max_attempts": 5, "retry_base_backoff_s": 1.5,
             "retry_backoff_multiplier": 3.0, "retry_max_backoff_s": 60.0,
             "retry_jitter": 0.0, "retry_budget": 10},
        ).policy()
        assert policy == RetryPolicy(5, 1.5, 3.0, 60.0, 0.0, 10)


# ----------------------------------------------------------------------
# RetryLoop unit behaviour
# ----------------------------------------------------------------------


def _deterministic_platform():
    return PlatformConfig(
        name="deterministic",
        concurrency=ConcurrencyModel.single(),
        serving=ServingOverheadModel(
            architecture=ServingOverheadModel.api_polling().architecture,
            base_overhead_s=1e-3,
            jitter_fraction=0.0,
        ),
        keep_alive=KeepAlivePolicy(
            min_keep_alive_s=1e6,
            max_keep_alive_s=1e6,
            resource_behavior=KeepAliveResourceBehavior.FULL_ALLOCATION,
        ),
    )


def _rejecting_simulator(policy, rejections=None):
    """A standalone platform whose cold starts are synchronously rejected.

    ``rejections=None`` rejects every cold start; an integer rejects only
    that many, after which sandboxes become ready normally.  ``retry=`` is
    the only retry wiring.
    """
    fleet_bus = EventBus()
    channel = FeedbackChannel().attach(fleet_bus)
    loop = RetryLoop(policy, seed=3)
    function = FunctionConfig(
        name="fn", alloc_vcpus=1.0, alloc_memory_gb=1.0,
        cpu_time_s=0.2, io_time_s=0.05, init_duration_s=0.5,
    )
    simulator = PlatformSimulator(
        _deterministic_platform(), function, seed=0, feedback=channel, retry=loop
    )
    rejected = []

    def reject(event):
        if rejections is None or len(rejected) < rejections:
            rejected.append(event.sandbox_name)
            fleet_bus.publish(
                SandboxRejected(event.time_s, event.sandbox_name, reason="no_capacity")
            )

    simulator.bus.subscribe(SandboxColdStart, reject)
    return simulator, loop


class TestRetryLoop:
    def test_reinjects_with_incremented_attempts_and_cumulative_wait(self):
        simulator, loop = _rejecting_simulator(
            RetryPolicy(max_attempts=3, base_backoff_s=1.0, jitter=0.0)
        )
        scheduled = []
        simulator.bus.subscribe(RetryScheduled, scheduled.append)
        simulator.run([0.0], horizon_s=60.0)
        failures = simulator.metrics.failures
        assert [f.attempts for f in failures] == [1, 2, 3]
        assert [f.retry_wait_s for f in failures] == pytest.approx([0.0, 1.0, 3.0])
        # each granted delay is announced once, naming the failed parent
        assert [(e.request_id, e.next_attempt, e.delay_s) for e in scheduled] == [
            (failures[0].request_id, 2, 1.0),
            (failures[1].request_id, 3, 2.0),
        ]
        assert loop.retries_scheduled == 2

    def test_gave_up_failures_are_counted_not_reinjected(self):
        loop = RetryLoop(RETRY_POLICY, seed=0)
        assert loop.next_delay("fn", 3) is None
        assert loop.gave_up == 1
        assert loop.retries_scheduled == 0 and loop.budget_spent("fn") == 0

    def test_will_retry_respects_attempts_and_budget(self):
        loop = RetryLoop(RetryPolicy(max_attempts=3, retry_budget=1, jitter=0.0), seed=0)
        assert loop.will_retry("fn", 1) and loop.will_retry("fn", 2)
        assert not loop.will_retry("fn", 3)
        assert loop.next_delay("fn", 1) == 0.5
        assert loop.budget_remaining("fn") == 0 and loop.budget_spent("fn") == 1
        # budget spent: no further retries for fn, even below max_attempts
        assert not loop.will_retry("fn", 1)
        assert loop.next_delay("fn", 1) is None
        assert loop.retries_scheduled == 1 and loop.gave_up == 1
        # the budget is per function: another function still retries
        assert loop.will_retry("other", 1)
        assert loop.next_delay("other", 1) == 0.5

    def test_deadline_makes_a_failure_terminal(self):
        loop = RetryLoop(RetryPolicy(max_attempts=5, jitter=0.0, deadline_s=2.5), seed=0)
        assert loop.next_delay("fn", 1, elapsed_s=2.4) == 0.5
        assert loop.next_delay("fn", 2, elapsed_s=2.5) is None
        assert loop.retries_scheduled == 1 and loop.gave_up == 1

    def test_backoff_jitter_is_drawn_per_function(self):
        policy = RetryPolicy(base_backoff_s=1.0, jitter=0.5)
        busy = RetryLoop(policy, seed=7)
        first_a = busy.next_delay("a", 1)
        busy.next_delay("a", 1)
        quiet = RetryLoop(policy, seed=7)
        # fn b's delays do not depend on how many draws fn a made
        assert busy.next_delay("b", 1) == quiet.next_delay("b", 1)
        assert quiet.next_delay("a", 1) == first_a
        assert first_a != quiet.next_delay("b", 1)


# ----------------------------------------------------------------------
# Platform-level integration: the full fail -> backoff -> re-arrival cycle
# ----------------------------------------------------------------------


class TestPlatformRetryCycle:
    def test_retry_argument_is_the_whole_wiring(self):
        """``PlatformSimulator(retry=loop)`` retries with nothing else attached."""
        simulator, loop = _rejecting_simulator(RetryPolicy(max_attempts=3, jitter=0.0))
        simulator.run([0.0], horizon_s=60.0)
        m = simulator.metrics
        assert m.arrivals == 3
        assert [f.gave_up for f in m.failures] == [False, False, True]
        assert m.terminal_attempt_stats() == (3, 1)
        assert loop.retries_scheduled == 2 and loop.gave_up == 1
        # nothing listens for failures: the simulator asks the loop directly
        assert simulator.bus.subscriber_count(RequestFailed) == 0

    def test_request_retries_until_attempts_exhausted(self):
        policy = RetryPolicy(max_attempts=3, base_backoff_s=1.0,
                             backoff_multiplier=2.0, jitter=0.0)
        simulator, loop = _rejecting_simulator(policy)
        simulator.run([0.0], horizon_s=60.0)
        m = simulator.metrics
        # one organic arrival + two re-injections, every attempt failed
        assert m.arrivals == 3 and m.retry_arrivals == 2
        assert [f.attempts for f in m.failures] == [1, 2, 3]
        assert [f.gave_up for f in m.failures] == [False, False, True]
        assert m.gave_up_requests == 1
        assert loop.retries_scheduled == 2 and loop.gave_up == 1
        # deterministic backoff: attempts arrive at 0, 1, 3 and fail in place
        assert [f.failed_s for f in m.failures] == pytest.approx([0.0, 1.0, 3.0])
        assert [f.retry_wait_s for f in m.failures] == pytest.approx([0.0, 1.0, 3.0])
        # terminal attempts only: the logical request took 3 attempts
        assert m.attempt_counts() == [3]

    def test_budget_caps_total_retries(self):
        policy = RetryPolicy(max_attempts=5, base_backoff_s=1.0, jitter=0.0,
                             retry_budget=1)
        simulator, loop = _rejecting_simulator(policy)
        simulator.run([0.0, 0.1], horizon_s=60.0)
        m = simulator.metrics
        # two organic arrivals share one budget unit: exactly one retry fires
        assert m.retry_arrivals == 1 and loop.retries_scheduled == 1
        assert m.gave_up_requests == 2
        assert loop.budget_remaining("") == 0

    def test_late_backoff_is_censored_by_the_horizon(self):
        policy = RetryPolicy(max_attempts=2, base_backoff_s=50.0, max_backoff_s=50.0, jitter=0.0)
        simulator, loop = _rejecting_simulator(policy)
        simulator.run([0.0], horizon_s=10.0)
        m = simulator.metrics
        assert loop.retries_scheduled == 1
        assert m.retry_arrivals == 0  # scheduled beyond the horizon: never fired
        assert m.arrivals == m.num_requests + m.failed_requests + simulator.pending_request_count

    @pytest.mark.parametrize("arrival_s", [0.0, 0.5])
    def test_retries_keep_the_first_arrival_as_origin(self, arrival_s):
        """The retry deadline counts from the first arrival, even at t=0.

        A request born at ``t=0.0`` used to have its origin reset to the
        first retry's arrival time, which bought it an extra attempt.
        """
        policy = RetryPolicy(max_attempts=5, base_backoff_s=1.0, backoff_multiplier=1.0,
                             jitter=0.0, deadline_s=2.5)
        simulator, loop = _rejecting_simulator(policy)
        simulator.run([arrival_s], horizon_s=60.0)
        failures = simulator.metrics.failures
        # attempts arrive 0, 1, 2 and 3 s after the first; the fourth fails
        # past the 2.5-s deadline and is terminal
        assert [f.attempts for f in failures] == [1, 2, 3, 4]
        assert [f.gave_up for f in failures] == [False, False, False, True]
        assert [f.origin_s for f in failures] == [arrival_s] * 4
        assert loop.retries_scheduled == 3

    def test_completed_retry_latency_counts_from_the_first_arrival(self):
        """SLO latency of a retried t=0 request includes the failed attempt."""
        policy = RetryPolicy(max_attempts=3, base_backoff_s=1.0, jitter=0.0)
        simulator, _ = _rejecting_simulator(policy, rejections=1)
        simulator.metrics.slo_latency_s = 1.0
        simulator.run([0.0], horizon_s=60.0)
        m = simulator.metrics
        assert [f.attempts for f in m.failures] == [1]
        (outcome,) = m.requests
        assert outcome.attempts == 2 and outcome.arrival_s == 1.0
        assert outcome.origin_s == 0.0
        assert outcome.client_latency_s == outcome.completion_s
        # ~0.75 s after the retry arrived, but ~1.75 s after the first arrival
        assert outcome.end_to_end_latency_s < 1.0 < outcome.client_latency_s
        assert m.slo_attained == 0


# ----------------------------------------------------------------------
# Cluster-level properties
# ----------------------------------------------------------------------


def _cluster(seed, retry, *, feedback="on", num_functions=2, max_hosts=1,
             host_vcpus=1.0, rps=6.0, keep_alive_s=None, queue_depth=0):
    preset = get_platform_preset("aws_lambda_like")
    if keep_alive_s is not None:
        preset = dataclasses.replace(
            preset,
            keep_alive=dataclasses.replace(
                preset.keep_alive,
                min_keep_alive_s=keep_alive_s, max_keep_alive_s=keep_alive_s,
            ),
        )
    deployments = []
    for index in range(num_functions):
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5),
            name=f"fn-{index:02d}",
        )
        deployments.append(
            FunctionDeployment(function=function, platform=preset, rps=rps, duration_s=6.0)
        )
    return ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=host_vcpus, memory_gb=host_vcpus * 2),
            max_hosts=max_hosts,
            queue_depth=queue_depth,
            sample_interval_s=2.0,
        ),
        billing_platform="aws_lambda",
        seed=seed,
        feedback=feedback,
        retry=retry,
    )


def _fingerprint(result):
    return json.dumps(
        {
            "summary": result.summary(),
            "timeline": result.fleet.timeline,
            "unplaceable": result.fleet.unplaceable,
            "invoice_by_attempt": (
                sorted(result.meter.cost_usd_by_attempt.items())
                if result.meter is not None
                else None
            ),
        },
        sort_keys=True,
    ).encode()


class TestClusterRetryProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        budget=st.sampled_from([None, 2]),
        queue_depth=st.sampled_from([0, 4]),
    )
    def test_attempts_bounded_and_gave_up_means_exhausted(self, seed, budget, queue_depth):
        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.3, jitter=0.1,
                             retry_budget=budget)
        simulator = _cluster(seed, policy, queue_depth=queue_depth)
        result = simulator.run()
        loop = simulator.retry
        for name, m in result.metrics.items():
            for record in list(m.requests) + list(m.failures):
                assert 1 <= record.attempts <= policy.max_attempts
            for failure in m.failures:
                if failure.gave_up:
                    assert (
                        failure.attempts == policy.max_attempts
                        or loop.budget_remaining(name) == 0
                    )
                else:
                    # a non-terminal failure had headroom when it was stamped
                    assert failure.attempts < policy.max_attempts

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_retry_on_run_replays_byte_identically_from_its_seed(self, seed):
        first = _fingerprint(_cluster(seed, RETRY_POLICY).run())
        second = _fingerprint(_cluster(seed, RETRY_POLICY).run())
        assert first == second

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_retry_off_byte_reproduces_the_pre_retry_run(self, seed):
        """retry=None is the PR-4 behaviour: same fingerprint, no retry columns.

        A retry loop with nothing to retry (an unconstrained fleet never
        fails a request) must also change nothing beyond its all-quiet
        summary columns.
        """
        baseline = _cluster(seed, None, max_hosts=100_000, host_vcpus=64.0).run()
        off_fp = _fingerprint(baseline)
        assert "retried_requests" not in baseline.summary()
        quiet = _cluster(seed, RETRY_POLICY, max_hosts=100_000, host_vcpus=64.0).run()
        summary = quiet.summary()
        assert summary.pop("retried_requests") == 0.0
        assert summary.pop("gave_up_requests") == 0.0
        assert summary.pop("mean_attempts") == 1.0
        assert summary.pop("retry_amplification") == 1.0
        stripped = dataclasses.replace(quiet, retry=None)
        assert _fingerprint(stripped) == off_fp

    def test_latency_pointwise_dominates_retry_off(self):
        """Retry load never makes an organic request faster.

        Requests are matched across runs by (function, arrival time) --
        request *ids* shift because re-injections consume the shared counter.
        In this saturated single-concurrency fleet the amplified load mostly
        *starves* organic traffic (requests that completed without retries
        fail once retries occupy the fleet) and latencies of survivors are
        dominated pointwise.
        """
        lost = 0
        matched = 0
        for seed in (1, 2, 3):
            off = _cluster(seed, None, num_functions=3, host_vcpus=2.0,
                           keep_alive_s=1.0).run()
            on = _cluster(seed, RETRY_POLICY, num_functions=3, host_vcpus=2.0,
                          keep_alive_s=1.0).run()
            assert on.summary()["retry_amplification"] > 1.0
            for name in off.metrics:
                off_by_arrival = {
                    round(r.arrival_s, 9): r for r in off.metrics[name].requests
                }
                on_by_arrival = {
                    round(r.arrival_s, 9): r
                    for r in on.metrics[name].requests
                    if r.attempts == 1
                }
                for arrival, off_outcome in off_by_arrival.items():
                    on_outcome = on_by_arrival.get(arrival)
                    if on_outcome is None:
                        lost += 1
                        continue
                    matched += 1
                    assert (
                        on_outcome.end_to_end_latency_s
                        >= off_outcome.end_to_end_latency_s - 1e-9
                    )
        assert matched > 0
        assert lost > 0  # amplified load genuinely starved organic traffic

    def test_retries_reload_the_fleet_and_admission_queue(self):
        """Re-injected cold starts hit the same fleet admission path."""
        off = _cluster(11, None, queue_depth=4, keep_alive_s=1.0).run()
        on = _cluster(11, RETRY_POLICY, queue_depth=4, keep_alive_s=1.0).run()
        off_cold_starts = off.fleet.admitted + off.fleet.queued_total + len(off.fleet.unplaceable)
        on_cold_starts = on.fleet.admitted + on.fleet.queued_total + len(on.fleet.unplaceable)
        assert on_cold_starts > off_cold_starts
        # the feedback channel observed retry-provoked admissions too: the
        # queue-aware autoscaler and COST_FIT read amplified depth, not zero
        assert on.summary()["queued"] >= off.summary()["queued"]
        assert on.summary()["retried_requests"] > 0

    def test_completed_retried_attempts_are_billed_separately(self):
        result = _cluster(11, RETRY_POLICY, queue_depth=4, keep_alive_s=1.0).run()
        meter = result.meter
        by_attempt = meter.cost_usd_by_attempt
        retried_completions = [
            r for m in result.metrics.values() for r in m.requests if r.attempts > 1
        ]
        assert retried_completions, "scenario must complete at least one retried request"
        assert any(attempt > 1 for attempt in by_attempt)
        assert sum(by_attempt.values()) == pytest.approx(meter.cost_usd)
        # completed retried attempts carry their cumulative client backoff
        assert all(r.retry_wait_s > 0 for r in retried_completions)

    def test_retry_without_feedback_is_inert(self):
        """Nothing fails with the loop open, so nothing retries."""
        result = _cluster(5, RETRY_POLICY, feedback="off").run()
        summary = result.summary()
        assert summary["failed_requests"] == 0.0
        assert summary["retried_requests"] == 0.0
        assert summary["retry_amplification"] == 1.0
