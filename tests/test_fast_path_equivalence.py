"""Byte-exact fast paths checked against the reference algorithms they replace.

- **Indexed routing.**  ``PlatformSimulator`` keeps ready sandboxes in a
  sorted ``(concurrency, name)`` index instead of scanning every sandbox per
  routing decision.  Every decision is compared with a full scan (the
  pre-index algorithm, recomputing concurrency from the request lists), and
  the index itself with the ready sandboxes, on randomized cluster runs.
- **Heap-resident processes.**  Every kernel process -- autoscaler,
  fleet-sampler and telemetry ticks, and the CPU-bandwidth scheduler engine
  -- lives on the kernel heap as one self-re-arming tick instead of being
  polled after every event.  The runs are pinned against fingerprints
  recorded from the polled kernel (same event count, summary row, fleet
  timeline and telemetry), and standalone ``SchedulerSim.run()`` results for
  the Figure 10/11/12 and Table 3 engine configurations against their
  recorded task records and bandwidth statistics.

Regenerating the goldens under ``tests/golden/kernel/`` is only legitimate
for an *intentional* change to the simulated behaviour::

    PYTHONPATH=src python tests/test_fast_path_equivalence.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import numpy as np
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
from repro.sched.cgroup import BandwidthConfig
from repro.sched.engine import QuotaEnforcement, SchedulerConfig, SchedulerSim
from repro.sched.policies import PolicyParameters, SchedulingPolicy
from repro.sched.presets import PROVIDER_SCHED_PRESETS, scheduler_config_for
from repro.sched.task import SimTask, TaskPhase
from repro.sim.retry import RetryPolicy
from repro.workloads.functions import PYAES_FUNCTION

_READY = (SandboxState.IDLE, SandboxState.BUSY)
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "kernel"


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
# Heap-resident processes
# ----------------------------------------------------------------------


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


#: Cluster runs with the scheduler engine attached, spanning feedback x
#: retry x observed x platform: (platform, max_concurrency, seed, feedback,
#: retry, max_hosts, observed).
CLUSTER_CASES = (
    ("gcp_run_like", 3, 7, "on", True, 4, True),
    ("gcp_run_like", 0, 11, "off", False, 1, False),
    ("gcp_run_like", 1, 2026, "on", False, 4, False),
    ("gcp_run_like", 3, 90210, "off", True, 1, True),
    ("ibm_code_engine_like", 3, 3, "on", True, 1, False),
    ("ibm_code_engine_like", 1, 17, "off", False, 4, True),
    ("ibm_code_engine_like", 0, 4242, "on", False, 1, True),
    ("ibm_code_engine_like", 3, 123456789, "off", True, 4, False),
    ("aws_lambda_like", 0, 5, "on", True, 4, True),
    ("aws_lambda_like", 0, 29, "off", False, 1, False),
    ("aws_lambda_like", 1, 31337, "on", False, 4, False),
    ("aws_lambda_like", 3, 4294967295, "off", True, 1, True),
)


def _case_id(case) -> str:
    platform, max_concurrency, seed, feedback, retry, max_hosts, observed = case
    return (f"{platform}-c{max_concurrency}-s{seed}-fb_{feedback}-retry_{int(retry)}"
            f"-h{max_hosts}-obs_{int(observed)}")


def _cluster_fingerprint(case) -> str:
    platform, max_concurrency, seed, feedback, retry, max_hosts, observed = case
    obs = Observability(telemetry_interval_s=0.25) if observed else None
    simulator = _simulator(platform, max_concurrency, seed, feedback, retry, max_hosts,
                           scheduler=True, obs=obs)
    return hashlib.sha256(_fingerprint(simulator, obs)).hexdigest()


def _spin(cpu_s: float, name: str = "spin"):
    return [SimTask.cpu_bound(cpu_s, name=name)]


def _engine_config(vcpu_fraction, period_s, tick_hz, horizon_s, phase_seed,
                   policy=SchedulingPolicy.CFS, **extra) -> SchedulerConfig:
    """A bandwidth-controlled engine config with seed-derived grid phases."""
    rng = np.random.default_rng(phase_seed)
    return SchedulerConfig(
        bandwidth=BandwidthConfig.for_vcpu_fraction(vcpu_fraction, period_s=period_s),
        tick_hz=tick_hz,
        policy=PolicyParameters(policy=policy),
        tick_phase_s=float(rng.uniform(0.0, 1.0 / tick_hz)),
        period_phase_s=float(rng.uniform(0.0, period_s)),
        horizon_s=horizon_s,
        **extra,
    )


def _engine_cases():
    """Standalone engine runs: label -> (config, tasks)."""
    cases = {}
    aws, gcp, ibm = (PROVIDER_SCHED_PRESETS[p] for p in
                     ("aws_lambda", "gcp_run_functions", "ibm_code_engine"))
    # Figure 10: a 16 ms CPU-bound request across fractional allocations.
    for preset, fraction in ((aws, 128 / 1769.0), (aws, 0.25), (aws, 0.5), (aws, 1.0),
                             (gcp, 0.08), (gcp, 0.5)):
        cases[f"figure10-{preset.provider}-{fraction:.4f}"] = (
            _engine_config(fraction, preset.period_s, preset.tick_hz, 2.0, phase_seed=3),
            _spin(0.016, "probe"),
        )
    # Figure 11: the Huawei mean CPU time under each studied period.
    for period_ms in (5.0, 10.0, 20.0, 40.0, 80.0, 100.0):
        cases[f"figure11-period{period_ms:g}ms"] = (
            _engine_config(0.25, period_ms * 1e-3, 250, 2.0, phase_seed=11),
            _spin(0.0518, "probe"),
        )
    # Figure 12 (a)-(c) and Table 3: spinning functions under each provider preset.
    for preset, fraction in ((aws, 0.072), (gcp, 0.25), (ibm, 0.5), (aws, 0.25), (ibm, 0.25)):
        cases[f"figure12-{preset.provider}-{fraction}"] = (
            _engine_config(fraction, preset.period_s, preset.tick_hz, 2.0, phase_seed=40),
            _spin(4.0),
        )
    # Figure 12 (d): CFS versus EEVDF at two timer frequencies.
    for policy in (SchedulingPolicy.CFS, SchedulingPolicy.EEVDF):
        for tick_hz in (250, 1000):
            cases[f"figure12d-{policy.value}-{tick_hz}hz"] = (
                _engine_config(0.072, 0.020, tick_hz, 2.0, phase_seed=41, policy=policy),
                _spin(4.0),
            )
    # The paper's event-driven enforcement proposal, and a two-CPU mix of
    # compute and IO phases with staggered arrivals.
    cases["event-enforcement"] = (
        _engine_config(0.25, 0.020, 250, 2.0, phase_seed=43,
                       quota_enforcement=QuotaEnforcement.EVENT),
        _spin(0.3),
    )
    cases["two-cpu-io-mix"] = (
        _engine_config(1.5, 0.100, 1000, 3.0, phase_seed=44, num_cpus=2,
                       policy=SchedulingPolicy.EEVDF),
        [
            SimTask(phases=[TaskPhase.compute(0.04 * (i + 1)), TaskPhase.io(0.03),
                            TaskPhase.compute(0.02)],
                    arrival_s=0.013 * i, name=f"task-{i}")
            for i in range(5)
        ],
    )
    return cases


def _engine_record(config: SchedulerConfig, tasks) -> str:
    result = SchedulerSim(config, tasks).run()
    payload = json.dumps(
        {
            "tasks": {
                name: [task.arrival_s, task.completion_s, task.cpu_consumed_s,
                       task.run_segments, task.throttle_segments]
                for name, task in result.tasks.items()
            },
            "bandwidth_stats": result.bandwidth_stats,
            "end_time_s": result.end_time_s,
        },
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def _golden(name: str) -> dict:
    path = GOLDEN_DIR / name
    assert path.exists(), (
        f"missing golden {path}; regenerate (only after an intentional behaviour "
        "change) with 'PYTHONPATH=src python tests/test_fast_path_equivalence.py'"
    )
    return json.loads(path.read_text())


class TestHeapResidentTicks:
    def test_heap_ticks_replay_the_polled_order_byte_for_byte(self):
        current = {_case_id(case): _cluster_fingerprint(case) for case in CLUSTER_CASES}
        assert current == _golden("cluster_fingerprints.json")

    def test_standalone_engine_runs_replay_byte_for_byte(self):
        current = {
            label: _engine_record(config, tasks)
            for label, (config, tasks) in _engine_cases().items()
        }
        assert current == _golden("scheduler_runs.json")


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    goldens = {
        "cluster_fingerprints.json": {
            _case_id(case): _cluster_fingerprint(case) for case in CLUSTER_CASES
        },
        "scheduler_runs.json": {
            label: _engine_record(config, tasks)
            for label, (config, tasks) in _engine_cases().items()
        },
    }
    for name, golden in goldens.items():
        (GOLDEN_DIR / name).write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"regenerated goldens under {GOLDEN_DIR}")


if __name__ == "__main__":
    regenerate()
