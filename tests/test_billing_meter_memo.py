"""The meter's per-duration memo against the unmemoised invoice path, float-exact.

A bus-attached :class:`CostMeter` bills simulator outcomes under one fixed
:class:`RequestResources` context, so each request's charges depend only on
its price class and billable seconds, and the meter memoises them per
billable duration.  Every request here is also billed through
:meth:`CostMeter.meter_request`, which compiles and prices each invocation
afresh, and every running total and bucket must agree with ``==``.
Durations sit on exact granularity multiples, within
:data:`ROUND_UP_TOLERANCE` of one, and in between, so the memo is hit by
requests that round to the same billable time from different raw durations.
"""

import numpy as np
import pytest

from repro.billing import meter as meter_module
from repro.billing.calculator import InvocationBillingInput
from repro.billing.catalog import get_billing_model
from repro.billing.meter import CostMeter, RequestResources
from repro.billing.units import ROUND_UP_TOLERANCE
from repro.platform.metrics import RequestOutcome
from repro.sim.events import EventBus, RequestCompleted

#: The five request-billed platform models of Table 1.
REQUEST_BILLED_PLATFORMS = (
    "aws_lambda",
    "gcp_run_request",
    "azure_consumption",
    "huawei_functiongraph",
    "cloudflare_workers",
)

MULTIPLIERS = {"economy": 0.8, "premium": 1.5}

#: Two functions, each on its own bus: memo entries must not leak between them.
RESOURCES = (
    RequestResources(alloc_vcpus=1.0, alloc_memory_gb=2.0, used_cpu_seconds=0.16,
                     used_memory_gb=0.3),
    RequestResources(alloc_vcpus=0.5, alloc_memory_gb=0.25, used_cpu_seconds=0.0301,
                     used_memory_gb=0.1),
)


class _Zones:
    """A fleet stand-in: a sandbox's price class is its name's prefix."""

    @staticmethod
    def price_class_of(sandbox_name):
        prefix = sandbox_name.split("-")[0]
        return prefix if prefix in ("economy", "premium", "standard") else None


def _durations(granularity_s: float, rng: np.random.Generator, count: int):
    """Raw durations on, next to and between multiples of ``granularity_s``."""
    steps = rng.integers(1, 40, size=count)
    nudge = rng.choice([0.0, 0.4, -0.4, 0.9, -0.9, 5.0, 500.0], size=count) * ROUND_UP_TOLERANCE
    durations = steps * granularity_s * (1.0 + nudge)
    between = rng.random(count) < 0.25
    durations[between] = rng.uniform(0.001, 40 * granularity_s, size=between.sum())
    return [float(d) for d in durations]


def _outcomes(granularity_s: float, seed: int, count: int = 240):
    rng = np.random.default_rng(seed)
    durations = _durations(granularity_s, rng, count)
    zones = ("premium", "economy", "standard", "unplaced")
    outcomes = []
    for index, duration in enumerate(durations):
        cold = bool(rng.random() < 0.3)
        init = float(rng.choice([0.05, 0.5, 1.0, 0.25 + 0.3e-9])) if cold else 0.0
        outcomes.append(RequestOutcome(
            request_id=f"req-{index:05d}",
            arrival_s=float(index),
            origin_s=float(index),
            start_s=float(index) + init,
            completion_s=float(index) + init + duration,
            execution_duration_s=duration,
            cold_start=cold,
            init_duration_s=init,
            queue_delay_s=0.0,
            sandbox_name=f"{zones[index % 4]}-{index % 7}",
            attempts=int(rng.integers(1, 4)),
            tenant=("tenant-a", "tenant-b")[index % 2],
        ))
    return outcomes


def _snapshot(meter: CostMeter):
    return (
        meter.totals(),
        dict(meter.cost_usd_by_class),
        dict(meter.cost_usd_by_attempt),
        dict(meter.cost_usd_by_tenant),
    )


@pytest.mark.parametrize("include_fee", [True, False])
@pytest.mark.parametrize("platform", REQUEST_BILLED_PLATFORMS)
def test_memoised_bus_meter_matches_unmemoised_invoices(platform, include_fee, monkeypatch):
    granularity_s = get_billing_model(platform).time_granularity_s
    assert granularity_s > 0  # every request-billed catalog model rounds time
    streams = [_outcomes(granularity_s, seed) for seed in (1, 2)]

    memoised = CostMeter(platform, include_fee, price_class_multipliers=MULTIPLIERS)
    memoised.attach_fleet(_Zones())
    buses = [EventBus() for _ in RESOURCES]
    for bus, resources in zip(buses, RESOURCES):
        memoised.attach(bus, resources)

    original = meter_module._charges
    priced = []

    def counting(*args):
        priced.append(args)
        return original(*args)

    monkeypatch.setattr(meter_module, "_charges", counting)
    # Interleave the two buses, as co-simulated functions would.
    for pair in zip(*streams):
        for bus, outcome in zip(buses, pair):
            bus.publish(RequestCompleted(outcome.completion_s, outcome))
    monkeypatch.setattr(meter_module, "_charges", original)
    requests = sum(len(stream) for stream in streams)
    # The memo is in play: many requests share a billable duration.
    assert len(priced) < requests

    unmemoised = CostMeter(platform, include_fee, price_class_multipliers=MULTIPLIERS)
    for pair in zip(*streams):
        for resources, outcome in zip(RESOURCES, pair):
            unmemoised.meter_request(
                InvocationBillingInput(
                    execution_s=outcome.execution_duration_s,
                    init_s=outcome.init_duration_s,
                    alloc_vcpus=resources.alloc_vcpus,
                    alloc_memory_gb=resources.alloc_memory_gb,
                    used_cpu_seconds=resources.used_cpu_seconds,
                    used_memory_gb=resources.used_memory_gb,
                ),
                cold_start=outcome.cold_start,
                price_class=_Zones.price_class_of(outcome.sandbox_name),
                attempts=outcome.attempts,
                tenant=outcome.tenant,
            )

    assert _snapshot(memoised) == _snapshot(unmemoised)
    assert memoised.num_requests == requests
    assert set(memoised.cost_usd_by_tenant) == {"tenant-a", "tenant-b"}
    assert set(memoised.cost_usd_by_attempt) == {1, 2, 3}
    assert {"premium", "economy", "standard"} <= set(memoised.cost_usd_by_class)
