"""Tests for the typed event bus and the named RNG streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.events import (
    EventBus,
    RequestCompleted,
    SandboxColdStart,
    SandboxIdle,
    SimEvent,
)
from repro.sim.rng import RngStreams, derive_seed, named_generator


@dataclass(frozen=True)
class _CustomEvent(RequestCompleted):
    pass


class TestEventBus:
    def test_exact_type_dispatch(self):
        bus = EventBus()
        seen = []
        bus.subscribe(RequestCompleted, lambda e: seen.append(e))
        bus.publish(RequestCompleted(1.0, outcome="ok"))
        bus.publish(SandboxColdStart(2.0, sandbox_name="sb-1"))
        assert len(seen) == 1
        assert seen[0].outcome == "ok"

    def test_subscribers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(SimEvent, lambda e: order.append("first"))
        bus.subscribe(SimEvent, lambda e: order.append("second"))
        bus.subscribe(SimEvent, lambda e: order.append("third"))
        bus.publish(SimEvent(0.0))
        assert order == ["first", "second", "third"]

    def test_base_class_subscription_sees_subclasses(self):
        bus = EventBus()
        all_events = []
        bus.subscribe(SimEvent, lambda e: all_events.append(type(e).__name__))
        bus.publish(RequestCompleted(1.0, outcome=None))
        bus.publish(SandboxIdle(2.0, sandbox_name="sb-1"))
        assert all_events == ["RequestCompleted", "SandboxIdle"]

    def test_exact_subscribers_run_before_base_subscribers(self):
        bus = EventBus()
        order = []
        bus.subscribe(SimEvent, lambda e: order.append("base"))
        bus.subscribe(RequestCompleted, lambda e: order.append("exact"))
        bus.subscribe(_CustomEvent, lambda e: order.append("leaf"))
        bus.publish(_CustomEvent(1.0, outcome=None))
        assert order == ["leaf", "exact", "base"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        callback = bus.subscribe(SimEvent, lambda e: seen.append(e))
        bus.publish(SimEvent(0.0))
        bus.unsubscribe(SimEvent, callback)
        bus.publish(SimEvent(1.0))
        assert len(seen) == 1
        bus.unsubscribe(SimEvent, callback)  # second removal is a no-op

    def test_hears_after_subscribe(self):
        bus = EventBus()
        assert not bus.hears(SimEvent)
        bus.subscribe(SimEvent, lambda e: None)
        assert bus.hears(SimEvent)


class TestHears:
    """``hears`` reads the chain ``publish`` would deliver to."""

    def test_fresh_bus_hears_nothing(self):
        bus = EventBus()
        for event_type in (SimEvent, RequestCompleted, SandboxColdStart, _CustomEvent):
            assert not bus.hears(event_type)

    def test_exact_subscription(self):
        bus = EventBus()
        bus.subscribe(SandboxIdle, lambda e: None)
        assert bus.hears(SandboxIdle)
        assert not bus.hears(SandboxColdStart)

    def test_subclass_event_of_a_subscribed_base(self):
        bus = EventBus()
        bus.subscribe(RequestCompleted, lambda e: None)
        assert bus.hears(_CustomEvent)
        assert not bus.hears(SandboxIdle)

    def test_subscriber_reached_only_through_forward_to(self):
        upstream, downstream = EventBus(), EventBus()
        upstream.forward_to(downstream)
        assert not upstream.hears(SandboxIdle)  # a bare forwarder delivers nowhere
        downstream.subscribe(SandboxIdle, lambda e: None)
        assert upstream.hears(SandboxIdle)
        assert not upstream.hears(SandboxColdStart)

    def test_unsubscribe_invalidates_the_cached_answer(self):
        upstream, downstream = EventBus(), EventBus()
        upstream.forward_to(downstream)
        callback = downstream.subscribe(RequestCompleted, lambda e: None)
        assert upstream.hears(_CustomEvent) and downstream.hears(RequestCompleted)
        downstream.unsubscribe(RequestCompleted, callback)
        assert not upstream.hears(_CustomEvent)
        assert not downstream.hears(RequestCompleted)

    def test_agrees_with_publish(self):
        bus = EventBus()
        seen = []
        bus.subscribe(SandboxIdle, seen.append)
        for event in (SandboxIdle(1.0, "sb"), SandboxColdStart(2.0, "sb")):
            bus.publish(event)
            assert bus.hears(type(event)) == (seen[-1:] == [event])


class TestNamedRng:
    def test_same_name_same_stream(self):
        a = named_generator(42, "arrivals").random(8)
        b = named_generator(42, "arrivals").random(8)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        a = named_generator(42, "arrivals").random(8)
        b = named_generator(42, "overhead").random(8)
        assert not np.array_equal(a, b)

    def test_different_root_seeds_differ(self):
        a = named_generator(1, "arrivals").random(8)
        b = named_generator(2, "arrivals").random(8)
        assert not np.array_equal(a, b)

    def test_stream_independent_of_sibling_consumption(self):
        streams = RngStreams(7)
        baseline = named_generator(7, "metrics").random(4)
        streams.stream("noise").random(1000)  # heavy sibling consumption
        assert np.array_equal(streams.stream("metrics").random(4), baseline)

    def test_streams_are_cached(self):
        streams = RngStreams(7)
        gen = streams.stream("a")
        first = gen.random(3)
        again = streams.stream("a").random(3)
        assert not np.array_equal(first, again)  # same generator advanced, not restarted

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(2026, "p=aws/rps=1") == derive_seed(2026, "p=aws/rps=1")
        seeds = {derive_seed(2026, f"scenario-{i}") for i in range(100)}
        assert len(seeds) == 100
        assert all(0 <= seed < 2**63 for seed in seeds)

    def test_int_names_supported(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


class TestForwarding:
    """forward_to delivers like subscribing downstream.publish, in one publish."""

    @staticmethod
    def _wire(forward):
        upstream, downstream = EventBus(), EventBus()
        order = []
        upstream.subscribe(RequestCompleted, lambda e: order.append("up-exact"))
        downstream.subscribe(SimEvent, lambda e: order.append("down-base"))
        downstream.subscribe(RequestCompleted, lambda e: order.append("down-exact"))
        forward(upstream, downstream)
        upstream.subscribe(SimEvent, lambda e: order.append("up-base-after"))
        upstream.subscribe(RequestCompleted, lambda e: order.append("up-exact-after"))
        return upstream, downstream, order

    def test_same_delivery_order_as_a_forwarding_subscriber(self):
        def by_subscriber(upstream, downstream):
            upstream.subscribe(SimEvent, downstream.publish)

        def by_splice(upstream, downstream):
            upstream.forward_to(downstream)

        logs = []
        for forward in (by_subscriber, by_splice):
            upstream, downstream, order = self._wire(forward)
            upstream.publish(_CustomEvent(1.0, outcome=None))
            upstream.publish(SandboxIdle(2.0, sandbox_name="sb-1"))
            downstream.publish(RequestCompleted(3.0, outcome=None))
            logs.append(order)
        assert logs[0] == logs[1]
        assert logs[1][:4] == ["up-exact", "up-exact-after", "down-exact", "down-base"]

    def test_later_downstream_subscriptions_reach_upstream_publishes(self):
        upstream, downstream, middle = EventBus(), EventBus(), EventBus()
        upstream.forward_to(middle)
        middle.forward_to(downstream)
        seen = []
        upstream.publish(SimEvent(0.0))
        downstream.subscribe(SimEvent, seen.append)
        upstream.publish(SimEvent(1.0))
        downstream.unsubscribe(SimEvent, seen.append)
        upstream.publish(SimEvent(2.0))
        assert [event.time_s for event in seen] == [1.0]

    def test_each_event_is_published_once(self):
        from repro.obs.profile import KernelProfiler
        from repro.sim.kernel import SimulationKernel

        upstream, downstream = EventBus(), EventBus()
        profiler = KernelProfiler().install(SimulationKernel(), downstream)
        upstream.forward_to(downstream)
        upstream.subscribe(SimEvent, lambda e: None)
        downstream.subscribe(SimEvent, lambda e: None)
        for index in range(3):
            upstream.publish(SimEvent(float(index)))
        stats = profiler.snapshot().publishes["SimEvent"]
        assert stats["count"] == 3
        assert stats["fanout"] == 6
