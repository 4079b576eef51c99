"""Byte-exact fast paths checked against the reference algorithms they replace.

- **Indexed routing.**  ``PlatformSimulator`` keeps ready sandboxes in a
  sorted ``(concurrency, name)`` index instead of scanning every sandbox per
  routing decision.  Every decision is compared with a full scan (the
  pre-index algorithm, recomputing concurrency from the request lists), and
  the index itself with the ready sandboxes, on randomized cluster runs.
- **Heap-resident periodic ticks.**  Autoscaler, fleet-sampler and telemetry
  ticks live on the kernel heap instead of being polled after every event.
  Forcing them back onto the polled path (a non-periodic proxy) must give
  byte-identical runs: same event count, summary row, fleet timeline and
  telemetry.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.obs import Observability
from repro.platform.concurrency import ConcurrencyModel
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.platform.sandbox import SandboxState
from repro.sched.engine import SchedulerSim
from repro.sched.presets import scheduler_config_for
from repro.sched.task import SimTask, TaskPhase
from repro.sim.kernel import SimulationKernel
from repro.sim.retry import RetryPolicy
from repro.workloads.functions import PYAES_FUNCTION

_READY = (SandboxState.IDLE, SandboxState.BUSY)


def _platform(name: str, max_concurrency: int):
    preset = get_platform_preset(name)
    if max_concurrency and not preset.concurrency.is_single:
        # A small limit makes full sandboxes, ingress queueing and in-sandbox
        # waiting (two runtime workers) part of every routing decision.
        preset = dataclasses.replace(
            preset,
            concurrency=ConcurrencyModel.multi(max_concurrency=max_concurrency, runtime_workers=2),
        )
    return preset


def _simulator(platform, max_concurrency, seed, feedback, retry, max_hosts, scheduler=False,
               obs=None):
    preset = _platform(platform, max_concurrency)
    deployments = [
        FunctionDeployment(
            function=dataclasses.replace(
                PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5),
                name=f"fn-{index:02d}",
            ),
            platform=preset,
            rps=rps,
            duration_s=6.0,
            arrival_process="poisson",
        )
        for index, rps in enumerate((12.0, 5.0))
    ]
    sched = None
    if scheduler:
        tasks = [
            SimTask(phases=[TaskPhase.compute(0.05 * (i + 1))], arrival_s=0.7 * i,
                    name=f"task-{i}")
            for i in range(3)
        ]
        sched = SchedulerSim(scheduler_config_for("aws_lambda", vcpu_fraction=0.5,
                                                  horizon_s=6.0), tasks)
    return ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=4, memory_gb=8), max_hosts=max_hosts, queue_depth=2,
            sample_interval_s=0.5,
        ),
        billing_platform="aws_lambda",
        scheduler=sched,
        seed=seed,
        feedback=feedback,
        retry=RetryPolicy() if retry else None,
        obs=obs,
    )


_configs = dict(
    platform=st.sampled_from(["gcp_run_like", "ibm_code_engine_like", "aws_lambda_like"]),
    max_concurrency=st.sampled_from([0, 1, 3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    feedback=st.sampled_from(["off", "on"]),
    retry=st.booleans(),
    max_hosts=st.sampled_from([1, 4]),
)


# ----------------------------------------------------------------------
# Indexed routing
# ----------------------------------------------------------------------


def _scan(simulator: PlatformSimulator):
    """Routing by full scan: the ready sandbox minimising (concurrency, name)."""
    limit = simulator.platform.concurrency.max_concurrency
    cutoff = simulator.kernel.now + 1e-9
    best, best_key = None, None
    for sandbox in simulator._sandboxes.values():
        if sandbox.state not in _READY or sandbox.ready_s > cutoff:
            continue
        key = (len(sandbox.executing) + len(sandbox.waiting), sandbox.name)
        if key[0] < limit and (best_key is None or key < best_key):
            best, best_key = sandbox, key
    return best


def _check_index(simulator: PlatformSimulator) -> None:
    for sandbox in simulator._sandboxes.values():
        assert sandbox.state is not SandboxState.TERMINATED
        assert sandbox.concurrency == len(sandbox.executing) + len(sandbox.waiting)
    expected = sorted(
        (s.concurrency, s.name) for s in simulator._sandboxes.values() if s.state in _READY
    )
    assert simulator._routable == expected


@pytest.fixture
def checked_routing(monkeypatch):
    """Every routing decision is compared with the scan; returns the decision count."""
    original = PlatformSimulator._pick_sandbox
    decisions = []

    def pick(self):
        _check_index(self)
        chosen = original(self)
        assert chosen is _scan(self)
        decisions.append(chosen is not None)
        return chosen

    monkeypatch.setattr(PlatformSimulator, "_pick_sandbox", pick)
    return decisions


class TestIndexedRouting:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(**_configs)
    def test_every_routing_decision_matches_a_full_scan(
        self, checked_routing, platform, max_concurrency, seed, feedback, retry, max_hosts
    ):
        simulator = _simulator(platform, max_concurrency, seed, feedback, retry, max_hosts)
        result = simulator.run()
        assert checked_routing
        for sim in simulator.simulators.values():
            _check_index(sim)
            assert sim._instance_count() == sum(
                s.state is not SandboxState.TERMINATED for s in sim._sandboxes.values()
            )
        assert sum(m.num_requests for m in result.metrics.values()) > 0

    def test_saturated_multi_concurrency_routes_onto_existing_sandboxes(self, checked_routing):
        """The case the index exists for: many ready sandboxes, most picks succeed."""
        simulator = _simulator("gcp_run_like", 3, 7, "on", True, 4)
        simulator.run()
        assert sum(checked_routing) > 100
        assert not all(checked_routing)  # full sandboxes forced some queueing


# ----------------------------------------------------------------------
# Heap-resident periodic ticks
# ----------------------------------------------------------------------


class _Polled:
    """A periodic process hidden behind a non-periodic proxy, so it is polled."""

    periodic = False

    def __init__(self, inner) -> None:
        self.inner = inner

    def next_event_time(self, now):
        return self.inner.next_event_time(now)

    def handle(self, now):
        self.inner.handle(now)


def _fingerprint(simulator: ClusterSimulator, obs) -> bytes:
    kernel = simulator.kernel
    counted = {}
    dispatch = kernel.run

    def run(*args, **kwargs):
        counted["events"] = dispatch(*args, **kwargs)
        return counted["events"]

    kernel.run = run
    result = simulator.run()
    return json.dumps(
        {
            "events": counted["events"],
            "summary": result.summary(),
            "timeline": result.fleet.timeline,
            "telemetry": list(obs.telemetry.rows) if obs is not None else None,
        },
        sort_keys=True,
    ).encode()


class TestHeapResidentTicks:
    @settings(max_examples=20, deadline=None)
    @given(**_configs, scheduler=st.booleans(), observed=st.booleans())
    def test_heap_ticks_replay_the_polled_order_byte_for_byte(
        self, platform, max_concurrency, seed, feedback, retry, max_hosts, scheduler, observed
    ):
        def run(polled: bool) -> bytes:
            obs = Observability(telemetry_interval_s=0.25) if observed else None
            original = SimulationKernel.add_process

            def add_process(kernel, process):
                if polled and getattr(process, "periodic", False):
                    process = _Polled(process)
                original(kernel, process)

            SimulationKernel.add_process = add_process
            try:
                simulator = _simulator(platform, max_concurrency, seed, feedback, retry,
                                       max_hosts, scheduler=scheduler, obs=obs)
            finally:
                SimulationKernel.add_process = original
            # Heap-resident: only the scheduler engine is left to poll.
            expected = len(simulator.kernel._processes) if polled else int(scheduler)
            assert len(simulator.kernel._polled) == expected
            return _fingerprint(simulator, obs)

        assert run(polled=False) == run(polled=True)
