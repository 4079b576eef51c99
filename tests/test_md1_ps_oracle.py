"""Analytic oracle for a multi-concurrency sandbox: M/D/1 processor sharing.

One 1-vCPU sandbox that admits every request (``max_concurrency`` far above
any queue this load builds), with no serving overhead, no contention
overhead, no cold-start cost and no autoscaler, shares its vCPU equally
among the requests it holds: a processor-sharing server.  Each request needs
S = 0.1 CPU-seconds, so under Poisson arrivals at rate rho / S the mean
response time of M/G/1-PS is S / (1 - rho), whatever the service-time
distribution.  The truth comes from the formula, not from an earlier
version of the code.

The estimate drops the first 1,000 requests by arrival (warm-up), splits the
rest into 50 consecutive batches and accepts the mean of the batch means
within 3 standard errors of the formula.  A sandbox that serves its
requests first-come first-served instead (``runtime_workers=1``) is an M/D/1
FCFS queue, S + rho S / (2 (1 - rho)) = 0.175 s at rho = 0.6 against 0.25 s,
about 50 standard errors away.

The ``slow`` profile runs 200,000 arrivals from t = 2^20 s, where the
clock's absolute times carry less precision; tier-1 skips it, CI runs it.
"""

import dataclasses
import math

import pytest

from repro.platform.concurrency import ConcurrencyModel, ContentionModel
from repro.platform.config import FunctionConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.sim.arrivals import PoissonSource

SERVICE_S = 0.1
WARMUP = 1_000
BATCHES = 50
LOADS = (0.3, 0.6, 0.8)


def _ps_platform():
    preset = get_platform_preset("gcp_run_like")
    return dataclasses.replace(
        preset,
        concurrency=ConcurrencyModel.multi(max_concurrency=10**6),
        serving=dataclasses.replace(preset.serving, base_overhead_s=0.0),
        contention=ContentionModel(overhead_per_peer=0.0),
        autoscaler=None,
        placement_delay_s=0.0,
    )


def _mean_response(rho: float, arrivals: int, start_s: float):
    """Batch-means estimate of the mean response time: ``(mean, standard error)``."""
    function = FunctionConfig(
        name="fn", alloc_vcpus=1.0, alloc_memory_gb=1.0, cpu_time_s=SERVICE_S, init_duration_s=0.0
    )
    rps = rho / SERVICE_S
    source = PoissonSource(rps, arrivals / rps, seed=1001, start_s=start_s)
    metrics = PlatformSimulator(_ps_platform(), function, seed=1).run(source)
    assert metrics.pending_requests == 0
    outcomes = sorted(metrics.requests, key=lambda outcome: outcome.arrival_s)[WARMUP:]
    assert len(outcomes) > 0.95 * (arrivals - WARMUP)
    size = len(outcomes) // BATCHES
    means = [
        math.fsum(o.completion_s - o.arrival_s for o in outcomes[i * size:(i + 1) * size]) / size
        for i in range(BATCHES)
    ]
    mean = math.fsum(means) / BATCHES
    variance = math.fsum((m - mean) ** 2 for m in means) / (BATCHES - 1)
    return mean, math.sqrt(variance / BATCHES)


def _check(rho: float, arrivals: int, start_s: float = 0.0) -> None:
    mean, se = _mean_response(rho, arrivals, start_s)
    expected = SERVICE_S / (1.0 - rho)
    assert abs(mean - expected) <= 3.0 * se, (
        f"rho={rho}: mean response {mean:.4f} +- {se:.4f}, M/D/1-PS {expected:.4f}"
    )


@pytest.mark.parametrize("rho", LOADS)
def test_mean_response_matches_md1_processor_sharing(rho):
    _check(rho, arrivals=50_000)


@pytest.mark.slow
@pytest.mark.parametrize("rho", LOADS)
def test_mean_response_matches_md1_processor_sharing_at_a_large_offset(rho):
    _check(rho, arrivals=200_000, start_s=2.0**20)
