"""Every fact on the event bus is one event type that something reads.

One small observed co-simulation turns every layer on -- feedback, client
retries, a credit-denying tenant, a bounded admission queue and a keep-alive
shorter than the run -- and records every publish together with the length
of the subscriber chain it resolved to.  Two properties must hold:

- every concrete event type ``repro.sim.events`` exports is published, so
  the vocabulary carries no dead type;
- every publish reaches at least one subscriber, so no layer states a fact
  nobody reads.
"""

import dataclasses

import pytest

import repro.sim.events as events
from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.obs import Observability
from repro.platform.presets import get_platform_preset
from repro.sim.events import EventBus, SimEvent
from repro.sim.retry import RetryPolicy
from repro.tenancy import TenantConfig
from repro.workloads.functions import PYAES_FUNCTION

EXPORTED_EVENT_TYPES = {
    cls
    for cls in (getattr(events, name) for name in events.__all__)
    if isinstance(cls, type) and issubclass(cls, SimEvent) and cls is not SimEvent
}


def _observed_full_stack_run():
    preset = get_platform_preset("aws_lambda_like")
    preset = dataclasses.replace(
        preset,
        keep_alive=dataclasses.replace(
            preset.keep_alive, min_keep_alive_s=1.0, max_keep_alive_s=1.0
        ),
    )
    deployments = []
    for index in range(3):
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5),
            name=f"fn-{index:02d}",
        )
        deployments.append(
            FunctionDeployment(function=function, platform=preset, rps=6.0, duration_s=8.0)
        )
    simulator = ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=1.0, memory_gb=2.0),
            max_hosts=1,
            queue_depth=1,
            sample_interval_s=2.0,
        ),
        billing_platform="aws_lambda",
        seed=4,
        feedback="on",
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.2),
        obs=Observability(),
        tenants=[
            TenantConfig(
                "tenant-00", credit_capacity=10.0, credit_refill_per_s=4.0, on_exhausted="deny"
            )
        ],
    )
    return simulator.run()


@pytest.fixture(scope="module")
def publishes():
    """(event type, resolved chain length) of every publish in the run."""
    seen = []
    original = EventBus.publish

    def recording_publish(bus, event):
        seen.append((type(event), len(bus._chain(type(event)))))
        original(bus, event)

    patch = pytest.MonkeyPatch()
    patch.setattr(EventBus, "publish", recording_publish)
    try:
        _observed_full_stack_run()
    finally:
        patch.undo()
    return seen


def test_every_exported_event_type_is_published(publishes):
    published = {event_type for event_type, _ in publishes}
    missing = sorted(t.__name__ for t in EXPORTED_EVENT_TYPES - published)
    assert not missing, f"event types nothing publishes: {missing}"


def test_every_publish_reaches_a_subscriber(publishes):
    unread = sorted({t.__name__ for t, chain_length in publishes if chain_length == 0})
    assert not unread, f"published with no subscriber: {unread}"
