"""Runs far from t = 0 terminate: the completion-check float livelocks stay fixed.

Past 2**14 s half an ulp of the clock (1.8e-12 s) exceeds the sandbox's
done tolerance (1e-12 s of residual work).  A request can then keep a
residual above the tolerance whose projected finish rounds to ``now``
itself, and the completion check used to re-arm at ``now`` forever.  Each
run here starts its arrivals at a large offset, bounds the kernel so a
regression fails instead of hanging, and checks the arrival conservation
law at the end.

The CPU-bandwidth scheduler had the same two hazards: a compute phase's
residual whose end rounds to ``now``, and a next tick or period boundary
that rounds back onto ``now`` once the grid snap is below the clock's ulp.
Its runs at 2**17 s, 2**20 s and just below its safe horizon of 2**21 s
must finish like the same run at t = 0; a config past that horizon, where
ticks would be missed, is refused.
"""

import pytest

from repro.analysis.keepalive import run_probe_point
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.sched.cgroup import BandwidthConfig
from repro.sched.engine import SchedulerConfig, SchedulerSim
from repro.sched.presets import PROVIDER_SCHED_PRESETS, scheduler_config_for
from repro.sched.task import SimTask, TaskPhase
from repro.sim.kernel import SimulationKernel
from repro.workloads.functions import PYAES_FUNCTION

ARRIVALS = 3_000
SPACING_S = 1.5
#: Far above what a terminating run needs (6k-17k events); a livelocked run hits it.
MAX_EVENTS = 200_000


@pytest.mark.parametrize(
    "platform, t0",
    [
        ("aws_lambda_like", 2.0**14),
        ("aws_lambda_like", 2.0**20),
        ("aws_lambda_like", 2.0**30),
        # An autoscaled platform ticks from t = 0, so 2**20 would cost 524k
        # ticks before the first arrival; 2**14 already reaches the hazard.
        ("gcp_run_like", 2.0**14),
    ],
)
def test_run_at_large_offset_terminates_and_conserves(platform, t0):
    simulator = PlatformSimulator(
        get_platform_preset(platform), PYAES_FUNCTION.to_function_config(1.0, 2.0), seed=3
    )
    horizon_s = simulator.schedule_arrivals([t0 + SPACING_S * i for i in range(ARRIVALS)])
    events = simulator.kernel.run(until=horizon_s + 1e-9, max_events=MAX_EVENTS)
    assert events < MAX_EVENTS, "completion checks livelocked"
    metrics = simulator.metrics
    assert metrics.arrivals == ARRIVALS
    assert metrics.arrivals == (
        metrics.num_requests
        + metrics.failed_requests
        + simulator.pending_request_count
        + simulator.in_flight_request_count
    )
    assert metrics.num_requests == ARRIVALS


@pytest.mark.parametrize("idle_time_s", [1_200.0, 3_600.0])
def test_keepalive_probe_past_two_to_the_fourteen_terminates(idle_time_s, monkeypatch):
    """Figure 9's probe point with a 20-minute and a 1-hour gap runs to t = 35k-105k s."""
    run = SimulationKernel.run
    dispatched = []

    def bounded(self, until=None, max_events=None, stop=None):
        dispatched.append(run(self, until=until, max_events=MAX_EVENTS, stop=stop))
        return dispatched[-1]

    monkeypatch.setattr(SimulationKernel, "run", bounded)
    row = run_probe_point(
        {"platform": "aws_lambda_like", "idle_time_s": idle_time_s, "workload": "pyaes",
         "probes_per_idle_time": 30},
        1,
    )
    assert dispatched and all(count < MAX_EVENTS for count in dispatched)
    # Every probe but the always-cold first one completed.
    assert row["num_probes"] == 29.0
    assert row["measured_cold_start_probability"] == row["policy_cold_start_probability"] == 1.0


def _scheduler_run(preset, t0):
    tasks = [
        SimTask([TaskPhase.compute(0.3)], arrival_s=t0 + 0.01 * i, name=f"t{i}") for i in range(3)
    ]
    engine = SchedulerSim(scheduler_config_for(preset, 0.5, horizon_s=t0 + 5.0), tasks)
    kernel = SimulationKernel()
    engine.attach(kernel)
    events = kernel.run(max_events=SCHED_MAX_EVENTS)
    return events, engine.finalize(), tasks


#: A terminating run needs 316-920 events; a livelocked one hits this at once.
SCHED_MAX_EVENTS = 20_000


@pytest.mark.parametrize("t0", [2.0**17, 2.0**20, 2.0**21 - 8])
@pytest.mark.parametrize("preset", sorted(PROVIDER_SCHED_PRESETS))
def test_scheduler_at_large_offset_finishes_like_at_zero(preset, t0):
    events, result, tasks = _scheduler_run(preset, t0)
    assert events < SCHED_MAX_EVENTS, "scheduler ticks livelocked"
    assert all(task.is_done for task in tasks)
    for task in tasks:
        assert result.task(task.name).cpu_consumed_s == pytest.approx(
            task.total_cpu_demand_s, abs=1e-9
        )
    _, reference, _ = _scheduler_run(preset, 0.0)
    for stat in ("nr_periods", "nr_throttled"):
        assert result.bandwidth_stats[stat] == reference.bandwidth_stats[stat]
    period_s = PROVIDER_SCHED_PRESETS[preset].period_s
    for name, task in result.tasks.items():
        assert abs(task.duration_s - reference.task(name).duration_s) <= period_s


def test_scheduler_refuses_a_horizon_past_its_safe_bound():
    with pytest.raises(ValueError, match="safe horizon of 2097152 s"):
        SchedulerConfig(BandwidthConfig(0.1, 0.05), horizon_s=2.0**24)
    SchedulerConfig(BandwidthConfig(0.1, 0.05), horizon_s=2.0**21)
