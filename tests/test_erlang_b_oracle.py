"""Analytic oracle for the fleet's rejection path: Erlang B (M/G/k/k loss).

One host of ``k`` vCPUs, no admission queue (``queue_depth=0``) and 1-vCPU
sandboxes that die the moment their one request finishes (keep-alive window
[0, 0]) make the fleet a loss system with ``k`` servers: a cold start that
finds every vCPU busy is rejected, and with feedback on its request fails.
Each admitted request holds its slot for h = placement 0.05 s + init 0.5 s
+ CPU 0.45 s = 1.0 s with no serving overhead, so under Poisson arrivals at
rate a/h the rejected fraction is Erlang B's blocking probability B(k, a),
whatever the holding-time distribution.  The truth comes from the formula,
not from an earlier version of the code.

A fleet that admits one slot too many (k + 1 servers) gives B(5, 4) = 0.199
instead of 0.311, about 30 standard errors away.

The ``slow`` profile runs 100,000 arrivals from t = 2^20 s on a
:class:`~repro.platform.invoker.PlatformSimulator` wired straight to a
:class:`~repro.cluster.fleet.Fleet` (``fleet=``), with no cluster around it.
"""

import dataclasses
import math

import pytest

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import Fleet, FleetConfig
from repro.cluster.host import HostSpec
from repro.platform.config import FunctionConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.sim.arrivals import PoissonSource
from repro.sim.feedback import PublishedRate

HOLDING_S = 1.0
ARRIVALS = 20_000


def erlang_b(servers: int, load: float) -> float:
    """Blocking probability of an M/G/k/k system, by the standard recursion."""
    blocking = 1.0
    for n in range(1, servers + 1):
        blocking = load * blocking / (n + load * blocking)
    return blocking


def _platform():
    preset = get_platform_preset("aws_lambda_like")
    return dataclasses.replace(
        preset,
        keep_alive=dataclasses.replace(
            preset.keep_alive, min_keep_alive_s=0.0, max_keep_alive_s=0.0
        ),
        serving=dataclasses.replace(preset.serving, base_overhead_s=0.0, jitter_fraction=0.0),
    )


_FUNCTION = FunctionConfig(
    name="fn",
    alloc_vcpus=1.0,
    alloc_memory_gb=1.0,
    cpu_time_s=0.45,
    init_duration_s=0.5,
)


def _fleet_config(servers: int) -> FleetConfig:
    return FleetConfig(
        host_spec=HostSpec(vcpus=float(servers), memory_gb=1e6),
        max_hosts=1,
        queue_depth=0,
        sample_interval_s=None,
    )


def _loss_system(servers: int, load: float, seed: int) -> ClusterSimulator:
    rps = load / HOLDING_S
    deployment = FunctionDeployment(
        function=_FUNCTION,
        platform=_platform(),
        rps=rps,
        duration_s=ARRIVALS / rps,
        arrival_process="poisson",
    )
    return ClusterSimulator(
        [deployment], fleet_config=_fleet_config(servers), seed=seed, feedback="on"
    )


def _check(servers: int, load: float, metrics) -> None:
    rejected = metrics.failed_requests / metrics.arrivals
    expected = erlang_b(servers, load)
    sigma = math.sqrt(expected * (1.0 - expected) / metrics.arrivals)
    assert abs(rejected - expected) <= 3.0 * sigma, (
        f"k={servers}, a={load}: rejected {rejected:.4f}, Erlang B {expected:.4f} "
        f"(3 sigma = {3.0 * sigma:.4f})"
    )


@pytest.mark.parametrize("servers, load", [(4, 4.0), (8, 6.0)])
def test_rejected_fraction_matches_erlang_b(servers, load):
    result = _loss_system(servers, load, seed=1).run()
    metrics = result.metrics["fn"]
    assert metrics.arrivals > 0.95 * ARRIVALS
    _check(servers, load, metrics)


@pytest.mark.slow
@pytest.mark.parametrize("servers, load", [(4, 4.0), (8, 6.0)])
def test_rejected_fraction_matches_erlang_b_at_a_large_offset(servers, load):
    arrivals = 100_000
    rps = load / HOLDING_S
    source = PoissonSource(rps, arrivals / rps, seed=1001, start_s=2.0**20)
    simulator = PlatformSimulator(
        _platform(), _FUNCTION, seed=1, rate=PublishedRate(),
        fleet=Fleet(_fleet_config(servers)),
    )
    metrics = simulator.run(source)
    assert metrics.arrivals > 0.95 * arrivals
    _check(servers, load, metrics)


def test_erlang_b_recursion_against_the_closed_form():
    for servers, load in ((4, 4.0), (8, 6.0), (5, 4.0)):
        terms = [load**n / math.factorial(n) for n in range(servers + 1)]
        assert erlang_b(servers, load) == pytest.approx(terms[-1] / sum(terms), rel=1e-12)
    assert erlang_b(4, 4.0) == pytest.approx(0.3107, abs=1e-4)
    assert erlang_b(5, 4.0) == pytest.approx(0.1991, abs=1e-4)
