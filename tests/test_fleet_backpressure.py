"""Tests for admission backpressure, multi-zone heterogeneity, and COST_FIT placement."""

import pytest

from repro.cluster.fleet import Fleet, FleetConfig, ZoneConfig
from repro.cluster.host import Host, HostSpec
from repro.cluster.placement import PlacementPolicy, SandboxRequirement, choose_host
from repro.sim.events import EventBus, SandboxAdmitted, SandboxQueued, SandboxRejected, SimEvent


def _recording_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(SimEvent, seen.append)
    return bus, seen


class TestAdmissionQueue:
    def test_zero_capacity_fleet_queues_then_rejects_at_bound(self):
        """Acceptance criterion: a zero-capacity fleet queues rather than drops."""
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=4, memory_gb=16), max_hosts=0, queue_depth=2))
        bus, seen = _recording_bus()
        fleet.attach(bus)
        for index in range(4):
            assert fleet.admit(float(index), f"sb-{index}", 1.0, 2.0) is None
        # First two queue; the bounded queue then rejects the rest.
        assert fleet.queue_depth == 2
        assert [e.sandbox_name for e in seen if isinstance(e, SandboxQueued)] == ["sb-0", "sb-1"]
        rejected = [e for e in seen if isinstance(e, SandboxRejected)]
        assert [e.sandbox_name for e in rejected] == ["sb-2", "sb-3"]
        assert all(e.reason == "queue_full" for e in rejected)
        assert fleet.queued_total == 2 and len(fleet.unplaceable) == 2
        assert fleet.hosts == []

    def test_queue_disabled_keeps_pr2_drop_semantics(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=4, memory_gb=16), max_hosts=0))
        bus, seen = _recording_bus()
        fleet.attach(bus)
        assert fleet.admit(0.0, "sb-0", 1.0, 1.0) is None
        assert fleet.queue_depth == 0
        assert fleet.unplaceable == [(0.0, "sb-0")]
        assert [e.reason for e in seen if isinstance(e, SandboxRejected)] == ["no_capacity"]

    def test_oversized_rejected_immediately_even_with_queue(self):
        """Waiting cannot help a sandbox larger than every zone's host shape."""
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8), queue_depth=10))
        bus, seen = _recording_bus()
        fleet.attach(bus)
        assert fleet.admit(1.0, "big", 4.0, 4.0) is None
        assert fleet.queue_depth == 0
        assert [e.reason for e in seen if isinstance(e, SandboxRejected)] == ["oversized"]

    def test_fifo_drain_ordering_on_mass_eviction(self):
        """Satellite: queue drains in enqueue order when capacity is released en masse."""
        fleet = Fleet(
            FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8), max_hosts=1, queue_depth=10)
        )
        bus, seen = _recording_bus()
        fleet.attach(bus)
        # Fill the single host, then queue three more.
        fleet.admit(0.0, "a", 1.0, 4.0)
        fleet.admit(0.0, "b", 1.0, 4.0)
        for index, name in enumerate(("q0", "q1", "q2")):
            fleet.admit(1.0 + index, name, 1.0, 4.0)
        assert fleet.queue_depth == 3
        # Mass eviction: both placed sandboxes terminate at t=10.
        fleet.release(10.0, "a")
        fleet.release(10.0, "b")
        admitted = [e for e in seen if isinstance(e, SandboxAdmitted) and e.queue_wait_s > 0]
        assert [e.sandbox_name for e in admitted] == ["q0", "q1"]
        assert [e.queue_wait_s for e in admitted] == [9.0, 8.0]
        assert fleet.queue_depth == 1 and list(fleet.queue) == ["q2"]
        assert fleet.admitted_from_queue == 2
        assert fleet.summary()["mean_queue_wait_s"] == pytest.approx(8.5)

    def test_smallest_first_discipline_admits_small_before_old(self):
        fleet = Fleet(
            FleetConfig(
                host_spec=HostSpec(vcpus=2, memory_gb=8),
                max_hosts=1,
                queue_depth=10,
                queue_discipline="smallest_first",
            )
        )
        fleet.admit(0.0, "filler", 2.0, 8.0)
        fleet.admit(1.0, "large", 2.0, 8.0)  # queued first, but big
        fleet.admit(2.0, "small", 0.5, 1.0)  # queued second, small
        fleet.release(5.0, "filler")
        # smallest_first admits the small latecomer ahead of the older large
        # entry; the large one keeps waiting for the capacity small now holds.
        assert fleet.host_of("small") is not None
        assert fleet.host_of("large") is None
        assert list(fleet.queue) == ["large"]
        assert fleet.admitted_from_queue == 1
        # Under FIFO the same sequence admits the older large entry instead.
        fifo = Fleet(
            FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8), max_hosts=1, queue_depth=10)
        )
        fifo.admit(0.0, "filler", 2.0, 8.0)
        fifo.admit(1.0, "large", 2.0, 8.0)
        fifo.admit(2.0, "small", 0.5, 1.0)
        fifo.release(5.0, "filler")
        assert fifo.host_of("large") is not None
        assert fifo.host_of("small") is None

    def test_fifo_skips_blocked_head_without_losing_it(self):
        """No head-of-line blocking: a later, smaller entry may pass a larger one."""
        fleet = Fleet(
            FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8), max_hosts=1, queue_depth=10)
        )
        fleet.admit(0.0, "filler-1", 1.0, 4.0)
        fleet.admit(0.0, "filler-2", 1.0, 4.0)
        fleet.admit(1.0, "large", 2.0, 8.0)  # head of the queue, needs a whole host
        fleet.admit(2.0, "small", 1.0, 4.0)
        fleet.release(5.0, "filler-1")
        # The freed half-host cannot take the queue head, but the smaller
        # entry behind it is admitted; the head stays queued, not dropped.
        assert fleet.host_of("large") is None
        assert fleet.host_of("small") is not None
        assert list(fleet.queue) == ["large"]

    def test_sandbox_terminated_while_queued_is_removed(self):
        fleet = Fleet(
            FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8), max_hosts=0, queue_depth=5)
        )
        fleet.admit(0.0, "sb-0", 1.0, 1.0)
        assert fleet.queue_depth == 1
        fleet.release(3.0, "sb-0")  # evicted before it was ever placed
        assert fleet.queue_depth == 0
        assert fleet.queue_abandoned == 1
        assert fleet.released == 0  # never held capacity

    def test_bus_driven_backpressure_loop(self):
        """Cold start -> queued -> eviction -> admitted -> woken; the bus hears each outcome."""
        fleet = Fleet(
            FleetConfig(host_spec=HostSpec(vcpus=1, memory_gb=2), max_hosts=1, queue_depth=4)
        )
        bus, seen = _recording_bus()
        fleet.attach(bus)
        woken = []
        assert fleet.admit(0.0, "sb-a", 1.0, 2.0, woken.append) is not None
        assert fleet.admit(1.0, "sb-b", 1.0, 2.0, woken.append) is None
        assert fleet.num_placed == 1 and list(fleet.queue) == ["sb-b"]
        assert woken == []  # a direct placement keeps no callback
        fleet.release(7.5, "sb-a")
        assert fleet.host_of("sb-b") is not None and fleet.queue_depth == 0
        assert woken == ["sb-b"]
        assert [type(e) for e in seen] == [SandboxAdmitted, SandboxQueued, SandboxAdmitted]
        waited = [e for e in seen if isinstance(e, SandboxAdmitted) and e.sandbox_name == "sb-b"]
        assert waited and waited[-1].queue_wait_s == pytest.approx(6.5)

    def test_invalid_queue_config(self):
        with pytest.raises(ValueError):
            FleetConfig(queue_depth=-1)
        with pytest.raises(ValueError):
            FleetConfig(queue_discipline="lifo")


class TestCostFit:
    def _fleet(self, **kwargs):
        economy = HostSpec(vcpus=4, memory_gb=16, hourly_cost_usd=0.2, price_class="economy")
        premium = HostSpec(vcpus=8, memory_gb=32, hourly_cost_usd=1.0, price_class="premium")
        return Fleet(
            FleetConfig(
                zones=(
                    ZoneConfig(name="economy", host_spec=economy, max_hosts=2),
                    ZoneConfig(name="premium", host_spec=premium, max_hosts=2),
                ),
                policy=PlacementPolicy.COST_FIT,
                **kwargs,
            )
        )

    def test_cost_fit_prefers_cheapest_feasible_host(self):
        fleet = self._fleet()
        host = fleet.admit(0.0, "sb-0", 1.0, 2.0)
        assert host is not None and host.zone == "economy"
        assert host.name == "economy/host-00000"

    def test_cost_fit_opens_premium_only_when_economy_exhausted(self):
        fleet = self._fleet()
        for index in range(2):
            fleet.admit(0.0, f"big-{index}", 4.0, 16.0)  # fills one economy host each
        host = fleet.admit(1.0, "next", 4.0, 16.0)
        assert host is not None and host.zone == "premium"
        assert fleet.summary()["fleet_hourly_cost_usd"] == pytest.approx(0.2 + 0.2 + 1.0)

    def test_cost_fit_tie_breaking_deterministic_on_equal_price_hosts(self):
        """Satellite: equal-price candidates resolve best-fit, then by open order."""
        spec = HostSpec(vcpus=8, memory_gb=32, hourly_cost_usd=0.5)
        hosts = [Host(spec=spec, name=f"h{i}") for i in range(3)]
        hosts[1].place("pre", 4.0, 16.0)  # fuller -> smaller leftover -> best fit
        requirement = SandboxRequirement("sb", 1.0, 4.0)
        for _ in range(3):
            chosen = choose_host(hosts, requirement, PlacementPolicy.COST_FIT)
            assert chosen is hosts[1]
        # Fully equal candidates: the first-opened host wins, every time.
        even_hosts = [Host(spec=spec, name=f"e{i}") for i in range(3)]
        for _ in range(3):
            assert choose_host(even_hosts, requirement, PlacementPolicy.COST_FIT) is even_hosts[0]

    def test_cost_fit_zone_open_prefers_cheaper_spec_over_declaration_order(self):
        premium_first = Fleet(
            FleetConfig(
                zones=(
                    ZoneConfig(name="premium", host_spec=HostSpec(vcpus=8, memory_gb=32, hourly_cost_usd=1.0)),
                    ZoneConfig(name="economy", host_spec=HostSpec(vcpus=4, memory_gb=16, hourly_cost_usd=0.2)),
                ),
                policy=PlacementPolicy.COST_FIT,
            )
        )
        host = premium_first.admit(0.0, "sb", 1.0, 2.0)
        assert host is not None and host.zone == "economy"

    def test_non_cost_policies_open_in_declaration_order(self):
        fleet = Fleet(
            FleetConfig(
                zones=(
                    ZoneConfig(name="premium", host_spec=HostSpec(vcpus=8, memory_gb=32, hourly_cost_usd=1.0)),
                    ZoneConfig(name="economy", host_spec=HostSpec(vcpus=4, memory_gb=16, hourly_cost_usd=0.2)),
                ),
                policy=PlacementPolicy.BEST_FIT,
            )
        )
        host = fleet.admit(0.0, "sb", 1.0, 2.0)
        assert host is not None and host.zone == "premium"


class TestZonesAndCost:
    def test_zone_host_names_are_namespaced_and_deterministic(self):
        fleet = Fleet(
            FleetConfig(
                zones=(
                    ZoneConfig(name="a", host_spec=HostSpec(vcpus=1, memory_gb=2), max_hosts=2),
                    ZoneConfig(name="b", host_spec=HostSpec(vcpus=4, memory_gb=8), max_hosts=2),
                ),
                policy=PlacementPolicy.FIRST_FIT,
            )
        )
        for index in range(3):
            fleet.admit(0.0, f"sb-{index}", 1.0, 2.0)
        fleet.admit(0.0, "wide", 4.0, 8.0)
        assert [h.name for h in fleet.hosts] == [
            "a/host-00000",
            "a/host-00001",
            "b/host-00000",
            "b/host-00001",
        ]

    def test_single_zone_keeps_bare_host_names(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8)))
        fleet.admit(0.0, "sb-0", 2.0, 4.0)
        assert fleet.hosts[0].name == "host-00000" and fleet.hosts[0].zone == ""

    def test_duplicate_zone_names_rejected(self):
        zone = ZoneConfig(name="z", host_spec=HostSpec(vcpus=1, memory_gb=2))
        with pytest.raises(ValueError):
            FleetConfig(zones=(zone, zone))
        with pytest.raises(ValueError):
            FleetConfig(zones=())

    def test_default_spec_price_derived_from_capacity(self):
        spec = HostSpec(vcpus=2, memory_gb=8)
        assert spec.hourly_cost_usd == pytest.approx(2 * 0.024 + 8 * 0.006)
        priced = HostSpec(vcpus=2, memory_gb=8, hourly_cost_usd=0.42)
        assert priced.hourly_cost_usd == 0.42

    def test_summary_provider_cost_without_sampling(self):
        """With sampling disabled, summary() still accrues cost to the last event."""
        fleet = Fleet(
            FleetConfig(
                host_spec=HostSpec(vcpus=2, memory_gb=8, hourly_cost_usd=3.6),
                sample_interval_s=None,
            )
        )
        fleet.admit(0.0, "sb-0", 1.0, 1.0)
        fleet.release(1000.0, "sb-0")
        summary = fleet.summary()
        assert summary["provider_cost_usd"] == pytest.approx(1.0)
        assert summary["fleet_hourly_cost_usd"] == pytest.approx(3.6)

    def test_summary_splits_rejections_by_reason(self):
        fleet = Fleet(
            FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8), max_hosts=0, queue_depth=1)
        )
        fleet.admit(0.0, "oversized", 4.0, 4.0)
        fleet.admit(1.0, "queued", 1.0, 1.0)
        fleet.admit(2.0, "overflow", 1.0, 1.0)
        summary = fleet.summary()
        assert summary["rejected_oversized"] == 1.0
        assert summary["rejected_queue_full"] == 1.0
        assert summary["rejected_no_capacity"] == 0.0
        assert summary["unplaceable"] == 2.0

    def test_provider_cost_integrates_open_time(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8, hourly_cost_usd=3.6)))
        fleet.admit(0.0, "sb-0", 1.0, 1.0)
        # One host at $3.6/h open for 1000 s = $1.
        assert fleet.provider_cost_usd(1000.0) == pytest.approx(1.0)
        sample = fleet.sample(1000.0)
        assert sample["fleet_hourly_cost_usd"] == pytest.approx(3.6)
        assert sample["provider_cost_usd"] == pytest.approx(1.0)
        assert sample["queue_depth"] == 0.0
