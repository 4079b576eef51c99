"""Reject before allocating: the fleet's refusal path leaves nothing behind.

A cold start the fleet turns away at admission never becomes a
:class:`~repro.platform.sandbox.Sandbox`, and a fleet that already knows a
shape cannot be placed answers without rescanning its hosts.  These tests
pin both halves without timing anything:

- a birth-rejected cold start leaves no platform or feedback state, spends
  its name's number, is counted by the meter, and publishes the same
  lifecycle it always did;
- the fleet's memo of unplaceable shapes never changes an admission
  decision (hypothesis, against an oracle that decides from scratch);
- on a saturated point, placement scans and ``Sandbox`` constructions are
  counted, not timed;
- ``retain_outcomes=False`` keeps failure counts without keeping the
  failure records.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billing.meter import CostMeter
from repro.cluster import fleet as fleet_module
from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import Fleet, FleetConfig, ZoneConfig
from repro.cluster.host import HostSpec
from repro.cluster.placement import PlacementPolicy, SandboxRequirement, choose_host
from repro.platform import invoker as invoker_module
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.sim.events import (
    EventBus,
    RequestFailed,
    RetryScheduled,
    SandboxColdStart,
    SandboxRejected,
    SandboxTerminated,
)
from repro.sim.feedback import FeedbackChannel
from repro.sim.retry import RetryLoop, RetryPolicy
from repro.workloads.functions import PYAES_FUNCTION

_LIFECYCLE = (SandboxColdStart, SandboxRejected, SandboxTerminated, RequestFailed, RetryScheduled)


def _pyaes(vcpus=1.0, memory_gb=2.0, name="fn-00"):
    return dataclasses.replace(PYAES_FUNCTION.to_function_config(vcpus, memory_gb), name=name)


def _one_host_fleet(queue_depth=0):
    return FleetConfig(
        host_spec=HostSpec(vcpus=2.0, memory_gb=8.0), max_hosts=1, queue_depth=queue_depth
    )


# ----------------------------------------------------------------------
# A birth-rejected cold start leaves no platform state
# ----------------------------------------------------------------------


def _wired_simulator(retry):
    """One single-concurrency function on a one-host fleet, wired by hand.

    The recorder subscribes to each lifecycle type on the shared bus before
    the fleet does, so it sees them in publish order (the fleet's rejection
    is published from inside the cold-start publish).
    """
    bus = EventBus()
    published = []
    for event_type in _LIFECYCLE:
        bus.subscribe(event_type, published.append)
    channel = FeedbackChannel().attach(bus)
    fleet = Fleet(dataclasses.replace(_one_host_fleet(), sample_interval_s=None)).attach(bus)
    function = _pyaes()
    simulator = PlatformSimulator(
        get_platform_preset("aws_lambda_like"),
        function,
        seed=3,
        bus=bus,
        name="fn-00",
        feedback=channel,
        retry=RetryLoop(RetryPolicy(), seed=4) if retry else None,
    )
    meter = CostMeter("aws_lambda").attach(simulator.bus, _deployment(function).resources())
    return simulator, channel, fleet, meter, published


def _deployment(function, rps=40.0, duration_s=5.0):
    return FunctionDeployment(
        function=function,
        platform=get_platform_preset("aws_lambda_like"),
        rps=rps,
        duration_s=duration_s,
        arrival_process="poisson",
    )


def _sandbox_number(name):
    return int(name.rsplit("-", 1)[1])


@pytest.mark.parametrize("retry", [False, True], ids=["retry_off", "retry_on"])
def test_birth_rejected_cold_start_leaves_no_platform_state(retry):
    simulator, channel, fleet, meter, published = _wired_simulator(retry)
    leftovers = []

    def inspect(event):
        # At the failure of the attempt a rejected cold start was made for,
        # the rejected sandbox must already be unknown everywhere.
        name = event.outcome.sandbox_name
        leftovers.extend(
            where
            for where, present in (
                ("_sandboxes", name in simulator._sandboxes),
                ("_completion_version", name in simulator._completion_version),
                ("_routable", any(key[1] == name for key in simulator._routable)),
                ("_pending_cold", name in simulator._pending_cold),
                ("feedback admission", channel.admission_state(name) is not None),
                ("feedback queue", name in channel._queued),
                ("feedback gates", name in channel._gates),
            )
            if present
        )

    simulator.bus.subscribe(RequestFailed, inspect)
    arrivals = [0.01 * i for i in range(40)]
    simulator.run(arrivals, horizon_s=30.0)

    rejected = [e.sandbox_name for e in published if isinstance(e, SandboxRejected)]
    assert rejected and not leftovers
    assert fleet.admitted > 0 and len(fleet.unplaceable) == len(rejected)

    # Every cold start spends one number, rejected or not: the names run
    # 0..n-1 with no gap, so the one after a rejection skips its number.
    cold = [e.sandbox_name for e in published if isinstance(e, SandboxColdStart)]
    assert [_sandbox_number(name) for name in cold] == list(range(len(cold)))
    assert set(rejected) < set(cold)

    # The meter opens and closes an instance for each of them.
    terminated = [e for e in published if isinstance(e, SandboxTerminated)]
    assert meter.instances_started == len(cold)
    assert meter.instances_closed == len(terminated)
    assert {e.sandbox_name for e in terminated} >= set(rejected)

    # Each rejection publishes exactly its lifecycle, contiguously; a retry
    # follows the failure unless the client gave up.
    expected = [SandboxColdStart, SandboxRejected, SandboxTerminated, RequestFailed]
    outcomes = set()
    for name in rejected:
        start = next(
            i for i, e in enumerate(published)
            if isinstance(e, SandboxColdStart) and e.sandbox_name == name
        )
        window = published[start:start + 5]
        assert [type(e) for e in window[:4]] == expected, (name, window)
        assert all(e.sandbox_name == name for e in window[:3]), window
        assert window[2].reason == "admission_rejected"
        failure = window[3].outcome
        assert failure.sandbox_name == name and failure.reason == "admission_rejected"
        retried = len(window) == 5 and isinstance(window[4], RetryScheduled)
        assert retried == (retry and not failure.gave_up), window
        if retried:
            assert window[4].request_id == failure.request_id
        outcomes.add((retried, failure.gave_up))
    assert outcomes == ({(True, False), (False, True)} if retry else {(False, False)})


# ----------------------------------------------------------------------
# The fleet's memo never changes a decision
# ----------------------------------------------------------------------

_ZONES = (
    ZoneConfig(name="economy", host_spec=HostSpec(vcpus=2.0, memory_gb=4.0), max_hosts=1),
    ZoneConfig(
        name="premium",
        host_spec=HostSpec(vcpus=4.0, memory_gb=8.0, hourly_cost_usd=1.0, price_class="premium"),
        max_hosts=1,
    ),
)
#: A shape both zones fit, one only the premium zone fits, and one none fits.
_SHAPES = ((1.0, 2.0), (3.0, 6.0), (8.0, 2.0))


def _oracle_admit(fleet, name, vcpus, memory_gb):
    """The admission ``fleet`` must make, decided from scratch.

    Returns ``(host name or None, reject reason or None)``; ``(None, None)``
    means the sandbox is queued.
    """
    zones = fleet.zones
    if not any(vcpus <= z.host_spec.vcpus and memory_gb <= z.host_spec.memory_gb for z in zones):
        return None, "oversized"
    policy = fleet.config.policy
    host = choose_host(fleet.hosts, SandboxRequirement(name, vcpus, memory_gb), policy)
    if host is not None:
        return host.name, None
    headroom = [
        (index, zone)
        for index, zone in enumerate(zones)
        if sum(1 for h in fleet.hosts if h.zone == zone.name) < zone.max_hosts
        and vcpus <= zone.host_spec.vcpus
        and memory_gb <= zone.host_spec.memory_gb
    ]
    if headroom:
        if policy is PlacementPolicy.COST_FIT:
            _, zone = min(headroom, key=lambda pair: (pair[1].host_spec.hourly_cost_usd, pair[0]))
        else:
            _, zone = headroom[0]
        opened = sum(1 for h in fleet.hosts if h.zone == zone.name)
        return f"{zone.name}/host-{opened:05d}", None
    depth = fleet.config.queue_depth
    if depth == 0:
        return None, "no_capacity"
    return (None, None) if len(fleet.queue) < depth else (None, "queue_full")


#: Admits outnumber releases two to one, so sequences reach a full fleet.
_OPS = st.lists(
    st.tuples(st.sampled_from(["admit", "admit", "release"]), st.integers(0, 1_000)),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    ops=_OPS,
    queue_depth=st.sampled_from([0, 2]),
    discipline=st.sampled_from(["fifo", "smallest_first"]),
    policy=st.sampled_from(list(PlacementPolicy)),
)
def test_fleet_memo_never_changes_a_decision(ops, queue_depth, discipline, policy):
    fleet = Fleet(
        FleetConfig(
            policy=policy,
            zones=_ZONES,
            queue_depth=queue_depth,
            queue_discipline=discipline,
            sample_interval_s=None,
        )
    )
    names = []
    for step, (op, arg) in enumerate(ops):
        time_s = float(step)
        if op == "release":
            if names:
                fleet.release(time_s, names[arg % len(names)])
            continue
        name = f"sb-{len(names):03d}"
        names.append(name)
        vcpus, memory_gb = _SHAPES[arg % len(_SHAPES)]
        expected_host, expected_reason = _oracle_admit(fleet, name, vcpus, memory_gb)
        queue_before = [entry.sandbox_name for entry in fleet.queue]
        reasons_before = dict(fleet.reject_reasons)

        host = fleet.admit(time_s, name, vcpus, memory_gb)

        assert (host.name if host is not None else None) == expected_host
        new_reasons = {
            reason: count - reasons_before.get(reason, 0)
            for reason, count in fleet.reject_reasons.items()
            if count != reasons_before.get(reason, 0)
        }
        assert new_reasons == ({expected_reason: 1} if expected_reason else {})
        queued = expected_host is None and expected_reason is None
        assert [entry.sandbox_name for entry in fleet.queue] == (
            queue_before + [name] if queued else queue_before
        )


def test_release_reopens_a_remembered_shape():
    fleet = Fleet(FleetConfig(zones=_ZONES, sample_interval_s=None))
    placed = [fleet.admit(0.0, f"sb-{i}", 1.0, 2.0) for i in range(6)]
    assert all(host is not None for host in placed)
    assert fleet.admit(1.0, "full-1", 1.0, 2.0) is None
    assert fleet.admit(1.0, "full-2", 1.0, 2.0) is None  # answered from the memo
    fleet.release(2.0, "sb-0")
    assert fleet.admit(3.0, "after-release", 1.0, 2.0) is placed[0]
    assert fleet.reject_reasons == {"no_capacity": 2}


# ----------------------------------------------------------------------
# Count-based regression guard on a saturated point
# ----------------------------------------------------------------------


def test_saturated_point_rejects_without_scanning_or_building(monkeypatch):
    counts = {"choose_host": 0, "Sandbox": 0}
    real_choose_host = fleet_module.choose_host
    real_sandbox = invoker_module.Sandbox

    def counting_choose_host(*args, **kwargs):
        counts["choose_host"] += 1
        return real_choose_host(*args, **kwargs)

    def counting_sandbox(*args, **kwargs):
        counts["Sandbox"] += 1
        return real_sandbox(*args, **kwargs)

    monkeypatch.setattr(fleet_module, "choose_host", counting_choose_host)
    monkeypatch.setattr(invoker_module, "Sandbox", counting_sandbox)
    deployments = [
        _deployment(_pyaes(vcpus, memory_gb, name=f"fn-{i:02d}"), rps=40.0, duration_s=10.0)
        for i, (vcpus, memory_gb) in enumerate([(1.0, 2.0), (0.5, 1.0)])
    ]
    result = ClusterSimulator(
        deployments,
        fleet_config=_one_host_fleet(),
        billing_platform="aws_lambda",
        seed=7,
        feedback="on",
        retry=RetryPolicy(),
    ).run()

    fleet = result.fleet
    cold_starts = result.meter.instances_started
    birth_rejections = len(fleet.unplaceable)
    assert cold_starts == fleet.admitted - fleet.admitted_from_queue + birth_rejections
    assert birth_rejections > 500
    assert counts["choose_host"] * 10 < birth_rejections
    assert counts["Sandbox"] == cold_starts - birth_rejections


# ----------------------------------------------------------------------
# retain_outcomes=False keeps failure counts, not failure records
# ----------------------------------------------------------------------


def test_unretained_run_counts_failures_without_keeping_them():
    def run(retain):
        simulator = ClusterSimulator(
            [_deployment(_pyaes(), rps=50.0, duration_s=20.0)],
            fleet_config=_one_host_fleet(),
            seed=11,
            feedback="on",
            retry=RetryPolicy(),
            retain_outcomes=retain,
        )
        result = simulator.run()
        return result.metrics["fn-00"], result.summary()

    kept, kept_summary = run(True)
    dropped, dropped_summary = run(False)
    assert kept.failed_requests == len(kept.failures) > 100
    assert kept.gave_up_requests == sum(1 for f in kept.failures if f.gave_up) > 0
    assert dropped.failures == [] and dropped.requests == []
    assert dropped.failed_requests == kept.failed_requests
    assert dropped.gave_up_requests == kept.gave_up_requests
    assert dropped.terminal_attempt_stats() == kept.terminal_attempt_stats()
    assert dropped_summary == kept_summary
    with pytest.raises(RuntimeError):
        dropped.attempt_counts()
