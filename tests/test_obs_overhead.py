"""Overhead guard: obs off adds *nothing*; obs on changes *no result byte*.

Two halves of the observability contract:

- detached (``obs=None``, every default): no bus subscribers, no profiler
  hooks, no telemetry process -- the hot paths take the exact pre-obs branch;
- attached: collectors subscribe and sample, but because they only read, the
  simulation's summary, fleet timeline, queue tail and invoice are
  byte-identical to the same seed without them.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.obs import Observability
from repro.obs.telemetry import TelemetryProcess
from repro.platform.presets import get_platform_preset
from repro.sim.events import (
    RequestArrived,
    RequestCompleted,
    RequestExecuting,
    RequestFailed,
    RetryScheduled,
)
from repro.sim.retry import RetryPolicy
from repro.workloads.functions import PYAES_FUNCTION


def _build(seed, *, obs=None, retry=None, feedback="off", queue_depth=0):
    preset = get_platform_preset("gcp_run_like")
    deployments = []
    for index in range(2):
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5),
            name=f"fn-{index:02d}",
        )
        deployments.append(
            FunctionDeployment(function=function, platform=preset, rps=4.0, duration_s=6.0)
        )
    return ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=1.0, memory_gb=2.0),
            max_hosts=1,
            queue_depth=queue_depth,
            sample_interval_s=2.0,
        ),
        billing_platform="gcp_run_request",
        seed=seed,
        feedback=feedback,
        retry=retry,
        obs=obs,
    )


def _fingerprint(result):
    return json.dumps(
        {
            "summary": result.summary(),
            "timeline": result.fleet.timeline,
            "queue": list(result.fleet.queue),
            "unplaceable": result.fleet.unplaceable,
        },
        sort_keys=True,
    ).encode()


class TestDetachedAddsNothing:
    def test_no_bus_subscribers_for_obs_events(self):
        simulator = _build(1)
        for event_type in (
            RequestArrived,
            RequestExecuting,
            RetryScheduled,
        ):
            assert not simulator.bus.hears(event_type)

    def test_no_profiler_installed(self):
        simulator = _build(1)
        assert simulator.kernel._profiler is None
        assert simulator.bus._profiler is None

    def test_no_telemetry_process(self):
        simulator = _build(1)
        assert not any(
            isinstance(process, TelemetryProcess) for process in simulator.kernel._processes
        )

    def test_per_request_events_not_even_published(self):
        """Without a collector the invoker skips the span publishes entirely."""
        hits = []
        simulator = _build(2)
        simulator.bus.subscribe(RequestArrived, hits.append)
        simulator.bus.subscribe(RequestExecuting, hits.append)
        result = simulator.run()
        assert sum(m.num_requests for m in result.metrics.values()) > 0
        assert hits == []

    def test_attached_observability_subscribes(self):
        simulator = _build(3, obs=Observability())
        assert simulator.bus.hears(RequestArrived)
        assert simulator.bus.hears(RequestCompleted)
        assert simulator.bus.hears(RequestFailed)


class TestAttachedIsByteInvisible:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        feedback=st.sampled_from(["off", "on"]),
    )
    def test_plain_config_byte_identical(self, seed, feedback):
        plain = _fingerprint(_build(seed, feedback=feedback).run())
        observed = _fingerprint(
            _build(seed, feedback=feedback, obs=Observability()).run()
        )
        assert plain == observed

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_retry_config_byte_identical(self, seed):
        """The hardest case: retries re-inject events and bill by attempt."""
        retry = RetryPolicy(max_attempts=3)
        plain_result = _build(seed, retry=retry, feedback="on", queue_depth=2).run()
        observed_result = _build(
            seed, retry=retry, feedback="on", queue_depth=2, obs=Observability()
        ).run()
        assert _fingerprint(plain_result) == _fingerprint(observed_result)
        plain_invoice = sorted(plain_result.meter.cost_usd_by_attempt.items())
        observed_invoice = sorted(observed_result.meter.cost_usd_by_attempt.items())
        assert plain_invoice == observed_invoice
