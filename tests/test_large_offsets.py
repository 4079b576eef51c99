"""Runs far from t = 0 terminate: the completion-check float livelock stays fixed.

Past 2**14 s half an ulp of the clock (1.8e-12 s) exceeds the sandbox's
done tolerance (1e-12 s of residual work).  A request can then keep a
residual above the tolerance whose projected finish rounds to ``now``
itself, and the completion check used to re-arm at ``now`` forever.  Each
run here starts its arrivals at a large offset, bounds the kernel so a
regression fails instead of hanging, and checks the arrival conservation
law at the end.
"""

import pytest

from repro.analysis.keepalive import run_probe_point
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
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
