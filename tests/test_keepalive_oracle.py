"""Analytic oracle for a fixed keep-alive window: P(cold) = exp(-lambda (S + K)).

One sandbox that admits every request (set up as in
``test_md1_ps_oracle.py``: no serving overhead, no contention, no
autoscaler, no placement delay and no initialisation) is kept alive for
exactly K seconds after it goes idle (``min_keep_alive_s = max_keep_alive_s
= K``, no scale-out extension).  Each request needs S = 0.1 CPU-seconds and
arrivals are Poisson at lambda = 0.01/s, so load is 10^-3 and requests
almost never overlap: a request is warm when the previous one arrived at
most S + K before it, which happens with probability 1 - exp(-lambda (S + K)).
The first request is always cold and is dropped.

Two checks, one per kind of truth:

- the cold fraction lies within 3 standard errors of the formula (at source
  seed 1001 it reads 0.6114, 0.3746 and 0.1380 against 0.6059, 0.3675 and
  0.1352 at K = 50, 100 and 200 s);
- the sample-path law holds for every request, with no statistical slack: a
  request is cold exactly when it arrives more than K after the latest
  completion of the requests that arrived before it.  Keep-alive counted
  from anything but the last completion breaks it.

The ``slow`` profile runs the same checks from t = 2^20 s, where the clock's
absolute times carry less precision; tier-1 skips it, CI runs it.
"""

import dataclasses
import functools
import math

import pytest

from repro.platform.concurrency import ConcurrencyModel, ContentionModel
from repro.platform.config import FunctionConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.sim.arrivals import PoissonSource

SERVICE_S = 0.1
RATE_PER_S = 0.01
ARRIVALS = 20_000
KEEP_ALIVES_S = (50.0, 100.0, 200.0)


def _keepalive_platform(keep_alive_s: float):
    preset = get_platform_preset("gcp_run_like")
    return dataclasses.replace(
        preset,
        concurrency=ConcurrencyModel.multi(max_concurrency=10**6),
        serving=dataclasses.replace(preset.serving, base_overhead_s=0.0),
        contention=ContentionModel(overhead_per_peer=0.0),
        autoscaler=None,
        placement_delay_s=0.0,
        keep_alive=dataclasses.replace(
            preset.keep_alive,
            min_keep_alive_s=keep_alive_s,
            max_keep_alive_s=keep_alive_s,
            scale_out_extension_s=0.0,
        ),
    )


@functools.lru_cache(maxsize=None)
def _outcomes(keep_alive_s: float, start_s: float):
    """Every completed request, in arrival order (one run per setup, shared by both checks)."""
    function = FunctionConfig(
        name="fn", alloc_vcpus=1.0, alloc_memory_gb=1.0, cpu_time_s=SERVICE_S, init_duration_s=0.0
    )
    source = PoissonSource(RATE_PER_S, ARRIVALS / RATE_PER_S, seed=1001, start_s=start_s)
    metrics = PlatformSimulator(_keepalive_platform(keep_alive_s), function, seed=1).run(source)
    assert metrics.pending_requests == 0
    outcomes = sorted(metrics.requests, key=lambda outcome: outcome.arrival_s)
    assert len(outcomes) > 0.95 * ARRIVALS
    assert outcomes[0].cold_start
    return outcomes


def _check_cold_fraction(keep_alive_s: float, start_s: float = 0.0) -> None:
    outcomes = _outcomes(keep_alive_s, start_s)[1:]
    cold = sum(outcome.cold_start for outcome in outcomes) / len(outcomes)
    expected = math.exp(-RATE_PER_S * (SERVICE_S + keep_alive_s))
    sigma = math.sqrt(expected * (1.0 - expected) / len(outcomes))
    assert abs(cold - expected) <= 3.0 * sigma, (
        f"K={keep_alive_s}: P(cold) {cold:.4f}, exp(-lambda (S + K)) {expected:.4f} +- {sigma:.4f}"
    )


def _check_sample_path_law(keep_alive_s: float, start_s: float = 0.0) -> None:
    outcomes = _outcomes(keep_alive_s, start_s)
    latest_completion = outcomes[0].completion_s
    mismatches = []
    for outcome in outcomes[1:]:
        predicted = outcome.arrival_s - latest_completion > keep_alive_s
        if outcome.cold_start != predicted:
            mismatches.append((outcome.request_id, outcome.arrival_s, latest_completion))
        latest_completion = max(latest_completion, outcome.completion_s)
    assert not mismatches, f"K={keep_alive_s}: {len(mismatches)} mismatches, first {mismatches[0]}"


@pytest.mark.parametrize("keep_alive_s", KEEP_ALIVES_S)
def test_cold_fraction_matches_exponential_idle_gaps(keep_alive_s):
    _check_cold_fraction(keep_alive_s)


@pytest.mark.parametrize("keep_alive_s", KEEP_ALIVES_S)
def test_cold_exactly_when_idle_longer_than_keep_alive(keep_alive_s):
    _check_sample_path_law(keep_alive_s)


@pytest.mark.slow
@pytest.mark.parametrize("keep_alive_s", KEEP_ALIVES_S)
def test_cold_fraction_matches_exponential_idle_gaps_at_a_large_offset(keep_alive_s):
    _check_cold_fraction(keep_alive_s, start_s=2.0**20)


@pytest.mark.slow
@pytest.mark.parametrize("keep_alive_s", KEEP_ALIVES_S)
def test_cold_exactly_when_idle_longer_than_keep_alive_at_a_large_offset(keep_alive_s):
    _check_sample_path_law(keep_alive_s, start_s=2.0**20)
