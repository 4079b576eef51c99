"""Event-driven fleet placement: the provider's host pool over simulated time.

:func:`repro.cluster.placement.place_sandboxes` packs a *static* sandbox
population once, by admitting all of it into a :class:`Fleet` at t=0.  The
fleet itself is event-driven: it
subscribes to the typed sandbox-lifecycle events platform simulators publish
on the shared :class:`~repro.sim.events.EventBus` and maintains the host pool
continuously -- admitting each cold-started sandbox onto a host under a
placement policy, releasing capacity when the sandbox is evicted, and opening
hosts on demand up to per-zone caps.

Three cluster-level mechanisms live here:

- **Multi-zone heterogeneity**: a fleet is partitioned into zones
  (:class:`ZoneConfig`), each with its own host shape and hourly price
  (:class:`~repro.cluster.host.HostSpec`) and host cap.  The ``COST_FIT``
  policy exploits the price differences; the default single-zone
  configuration reproduces the original homogeneous fleet exactly.
- **Admission backpressure**: with ``queue_depth > 0`` an unplaceable sandbox
  is *queued* (:class:`~repro.sim.events.SandboxQueued`) instead of dropped,
  and retried whenever capacity is released -- eviction or termination --
  in FIFO or smallest-first order.  Beyond the bound it is rejected
  (:class:`~repro.sim.events.SandboxRejected`); each successful placement
  publishes :class:`~repro.sim.events.SandboxAdmitted` with its queue wait.
- **Live cost accounting**: the fleet integrates the provider-side spend of
  its open hosts (hourly cost x open time) and, when a
  :class:`~repro.billing.meter.CostMeter` is attached via
  :meth:`Fleet.attach_meter`, samples the user-side billed cost next to it --
  the provider-vs-user cost comparison of §2.2/§3.3 read off one timeline.

The fleet is also a periodic kernel process (:class:`repro.sim.kernel.SimProcess`):
registered on the co-simulation kernel, it samples fleet-level utilisation on
a fixed interval, producing the deployment-density timeline that the static
packer cannot express (density under keep-alive churn, autoscaler growth, and
placement-policy interaction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.host import Host, HostSpec
from repro.cluster.placement import PlacementPolicy, SandboxRequirement, choose_host
from repro.numeric import fold
from repro.sim.events import (
    EventBus,
    SandboxAdmitted,
    SandboxColdStart,
    SandboxQueued,
    SandboxRejected,
    SandboxTerminated,
)
from repro.sim.kernel import PeriodicProcess

__all__ = ["FleetConfig", "Fleet", "QUEUE_DISCIPLINES", "ZoneConfig"]

#: The orders in which an admission queue retries its sandboxes.
QUEUE_DISCIPLINES: Tuple[str, ...] = ("fifo", "smallest_first")


@dataclass(frozen=True)
class ZoneConfig:
    """One fleet partition: a priced host shape plus a host cap."""

    name: str
    host_spec: HostSpec = field(default_factory=HostSpec)
    max_hosts: int = 100_000

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("zone name must be non-empty")
        if self.max_hosts < 0:
            raise ValueError("max_hosts must be >= 0")


@dataclass(frozen=True)
class FleetConfig:
    """Host pool parameters of one fleet.

    Attributes:
        host_spec: capacity of each host in the default single zone (ignored
            when ``zones`` is given).
        policy: bin-packing policy used to admit sandboxes.
        max_hosts: host cap of the default single zone (ignored with ``zones``).
        zones: heterogeneous fleet partitions; each zone has its own host
            shape, hourly price and cap.  ``None`` means one homogeneous zone
            built from ``host_spec``/``max_hosts`` (the PR-2 behaviour).
        queue_depth: bound of the admission queue.  ``0`` disables
            backpressure: unplaceable sandboxes are rejected immediately.
        queue_discipline: ``"fifo"`` retries queued sandboxes in arrival
            order; ``"smallest_first"`` retries the smallest resource demand
            first (ties broken by arrival order -- deterministic either way).
        sample_interval_s: period of the utilisation timeline samples taken
            when the fleet is registered as a kernel process; ``None``
            disables periodic sampling.
    """

    host_spec: HostSpec = field(default_factory=HostSpec)
    policy: PlacementPolicy = PlacementPolicy.BEST_FIT
    max_hosts: int = 100_000
    zones: Optional[Tuple[ZoneConfig, ...]] = None
    queue_depth: int = 0
    queue_discipline: str = "fifo"
    sample_interval_s: Optional[float] = 10.0

    def __post_init__(self) -> None:
        if self.max_hosts < 0:
            raise ValueError("max_hosts must be >= 0")
        if self.zones is not None:
            names = [zone.name for zone in self.zones]
            if not names:
                raise ValueError("zones must be non-empty when given")
            if len(set(names)) != len(names):
                raise ValueError(f"zone names must be unique, got {names}")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.queue_discipline not in QUEUE_DISCIPLINES:
            raise ValueError(f"unknown queue discipline {self.queue_discipline!r}")
        if self.sample_interval_s is not None and self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive (or None)")

    def effective_zones(self) -> Tuple[ZoneConfig, ...]:
        """The declared zones, or the implicit single homogeneous zone."""
        if self.zones is not None:
            return self.zones
        return (ZoneConfig(name="default", host_spec=self.host_spec, max_hosts=self.max_hosts),)


@dataclass
class _QueuedSandbox:
    """One admission-queue entry, ordered by enqueue sequence."""

    seq: int
    enqueued_s: float
    sandbox_name: str
    vcpus: float
    memory_gb: float


class Fleet:
    """The host pool as a live co-simulation participant.

    Event-driven: :meth:`admit` on every :class:`SandboxColdStart`,
    :meth:`release` on every :class:`SandboxTerminated` (evictions are a
    subclass, so both teardown paths release capacity and drain the admission
    queue).  Periodic: when added to the kernel via ``kernel.add_process(fleet)``,
    it records one utilisation sample per ``sample_interval_s``.
    """

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()
        self.zones: Tuple[ZoneConfig, ...] = self.config.effective_zones()
        self._single_unnamed_zone = self.config.zones is None
        self.hosts: List[Host] = []
        #: per-zone open-host counts (naming and cap enforcement).
        self._zone_counts: Dict[str, int] = {zone.name: 0 for zone in self.zones}
        #: host name -> simulated time the host was opened (cost accounting).
        self._opened_at: Dict[str, float] = {}
        #: sandbox name -> (host, vcpus, memory_gb) for everything placed.
        self._placements: Dict[str, Tuple[Host, float, float]] = {}
        #: (vcpus, memory_gb) shapes that found no host and no zone headroom
        #: since the last release: hosts never close and a placement only
        #: takes room, so only a release can make such a shape fit again.
        self._full_shapes: Set[Tuple[float, float]] = set()
        #: bounded admission queue (backpressure), in enqueue order.
        self.queue: List[_QueuedSandbox] = []
        self._queue_seq = 0
        #: (time, sandbox name) of admissions that were rejected for good.
        self.unplaceable: List[Tuple[float, str]] = []
        #: rejection reason -> count (oversized / queue_full / no_capacity).
        self.reject_reasons: Dict[str, int] = {}
        #: latest admission/release/sample time seen (cost-accounting end time).
        self.last_event_s = 0.0
        #: periodic utilisation samples (see :meth:`sample`).
        self.timeline: List[Dict[str, float]] = []
        self.admitted = 0
        self.released = 0
        self.queued_total = 0
        self.admitted_from_queue = 0
        self.queue_abandoned = 0
        self.peak_queue_depth = 0
        self.queue_wait_total_s = 0.0
        self.peak_hosts_open = 0
        self.peak_placed = 0
        self._bus: Optional[EventBus] = None
        self._meter = None  # Optional[repro.billing.meter.CostMeter] (duck-typed)
        self._sampler: Optional[PeriodicProcess] = (
            PeriodicProcess(self.config.sample_interval_s, self._record_sample)
            if self.config.sample_interval_s is not None
            else None
        )

    # ------------------------------------------------------------------
    # Event-driven admission / eviction
    # ------------------------------------------------------------------

    def attach(self, bus: EventBus) -> "Fleet":
        """Subscribe to sandbox lifecycle events on a (shared) bus.

        The fleet also publishes its admission outcomes
        (``SandboxQueued``/``SandboxAdmitted``/``SandboxRejected``) back onto
        the same bus, so downstream subscribers observe the full loop.
        """
        self._bus = bus
        bus.subscribe(SandboxColdStart, self._on_cold_start)
        bus.subscribe(SandboxTerminated, self._on_terminated)
        return self

    def attach_meter(self, meter) -> "Fleet":
        """Read a live :class:`~repro.billing.meter.CostMeter` into the timeline.

        The meter's running user-side invoice (``cost_usd``) is sampled next
        to the fleet's own provider-side spend, making the two cost views
        directly comparable on one clock.
        """
        self._meter = meter
        return self

    def register_metrics(self, registry) -> "Fleet":
        """Expose live fleet state as observability gauges (pure reads).

        The gauges read the same accessors :meth:`sample` does, so a
        telemetry tick observes exactly the state the periodic timeline
        records -- without appending to it.
        """
        registry.gauge("fleet_queue_depth", fn=lambda: float(len(self.queue)))
        registry.gauge("fleet_hosts_open", fn=lambda: float(len(self.hosts)))
        registry.gauge("fleet_sandboxes_placed", fn=lambda: float(self.num_placed))
        registry.gauge(
            "fleet_mean_cpu_utilization",
            fn=lambda: (
                fold(h.cpu_utilization for h in self.hosts) / len(self.hosts)
                if self.hosts
                else 0.0
            ),
        )
        registry.gauge("fleet_hourly_cost_usd", fn=lambda: float(self.hourly_cost_usd))
        return self

    def _publish(self, event) -> None:
        if self._bus is not None:
            self._bus.publish(event)

    def _on_cold_start(self, event: SandboxColdStart) -> None:
        self.admit(event.time_s, event.sandbox_name, event.alloc_vcpus, event.alloc_memory_gb)

    def _on_terminated(self, event: SandboxTerminated) -> None:
        self.release(event.time_s, event.sandbox_name)

    def _fits_some_zone(self, vcpus: float, memory_gb: float) -> bool:
        return any(
            vcpus <= zone.host_spec.vcpus and memory_gb <= zone.host_spec.memory_gb
            for zone in self.zones
        )

    def _open_host(self, time_s: float, requirement: SandboxRequirement) -> Optional[Host]:
        """Open a host for ``requirement`` at ``time_s`` in the zone the policy prefers.

        Candidate zones are those with cap headroom whose host shape fits the
        requirement.  ``COST_FIT`` opens in the cheapest candidate zone
        (price ties broken by declaration order); every other policy opens in
        the first candidate zone by declaration order.  Host names encode the
        zone and a per-zone open counter, so packings stay deterministic
        across processes; the implicit single zone keeps the PR-2 bare
        ``host-00000`` names.
        """
        candidates = [
            (index, zone)
            for index, zone in enumerate(self.zones)
            if self._zone_counts[zone.name] < zone.max_hosts
            and requirement.vcpus <= zone.host_spec.vcpus
            and requirement.memory_gb <= zone.host_spec.memory_gb
        ]
        if not candidates:
            return None
        if self.config.policy is PlacementPolicy.COST_FIT:
            index, zone = min(
                candidates, key=lambda pair: (pair[1].host_spec.hourly_cost_usd, pair[0])
            )
        else:
            index, zone = candidates[0]
        count = self._zone_counts[zone.name]
        if self._single_unnamed_zone:
            name = f"host-{count:05d}"
            host = Host(spec=zone.host_spec, name=name)
        else:
            name = f"{zone.name}/host-{count:05d}"
            host = Host(spec=zone.host_spec, name=name, zone=zone.name)
        self._zone_counts[zone.name] = count + 1
        self.hosts.append(host)
        self._opened_at[name] = time_s
        return host

    def _place_on(self, host: Host, requirement: SandboxRequirement) -> Host:
        """Record a placement on an already-chosen host."""
        host.place(requirement.sandbox_id, requirement.vcpus, requirement.memory_gb)
        self._placements[requirement.sandbox_id] = (host, requirement.vcpus, requirement.memory_gb)
        self.admitted += 1
        self.peak_hosts_open = max(self.peak_hosts_open, len(self.hosts))
        self.peak_placed = max(self.peak_placed, len(self._placements))
        return host

    def admit(self, time_s: float, sandbox_name: str, vcpus: float, memory_gb: float) -> Optional[Host]:
        """Place one sandbox; queues or rejects it when nothing fits.

        Returns the chosen host for direct placements.  Returns ``None`` when
        the sandbox was queued (backpressure enabled, bound not reached) or
        rejected (oversized for every zone, queue full, or queueing disabled);
        a shape already known to find no room skips the placement scan.
        """
        self.last_event_s = max(self.last_event_s, time_s)
        if (vcpus, memory_gb) not in self._full_shapes:
            requirement = SandboxRequirement(sandbox_name, vcpus, memory_gb)
            if not self._fits_some_zone(vcpus, memory_gb):
                # Can never fit, so waiting for capacity release is pointless.
                self._reject(time_s, sandbox_name, "oversized")
                return None
            host = choose_host(self.hosts, requirement, self.config.policy)
            if host is None:
                host = self._open_host(time_s, requirement)
            if host is not None:
                self._place_on(host, requirement)
                self._publish(SandboxAdmitted(time_s, sandbox_name, host_name=host.name))
                return host
            self._full_shapes.add((vcpus, memory_gb))
        if self.config.queue_depth > 0:
            if len(self.queue) < self.config.queue_depth:
                self._enqueue(time_s, sandbox_name, vcpus, memory_gb)
            else:
                self._reject(time_s, sandbox_name, "queue_full")
        else:
            self._reject(time_s, sandbox_name, "no_capacity")
        return None

    def _enqueue(self, time_s: float, sandbox_name: str, vcpus: float, memory_gb: float) -> None:
        self.queue.append(_QueuedSandbox(self._queue_seq, time_s, sandbox_name, vcpus, memory_gb))
        self._queue_seq += 1
        self.queued_total += 1
        self.peak_queue_depth = max(self.peak_queue_depth, len(self.queue))
        self._publish(SandboxQueued(time_s, sandbox_name, queue_depth=len(self.queue)))

    def _reject(self, time_s: float, sandbox_name: str, reason: str) -> None:
        self.unplaceable.append((time_s, sandbox_name))
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1
        self._publish(SandboxRejected(time_s, sandbox_name, reason=reason))

    def _drain_order(self) -> List[_QueuedSandbox]:
        if self.config.queue_discipline == "smallest_first":
            return sorted(self.queue, key=lambda e: (e.vcpus + e.memory_gb, e.seq))
        return list(self.queue)  # FIFO: enqueue order

    def _drain_queue(self, time_s: float) -> None:
        """Retry queued sandboxes against the freed capacity, in discipline order.

        Entries that still do not fit stay queued (no head-of-line blocking:
        a later, smaller entry may be admitted past a larger one even under
        FIFO -- admission *attempts* follow the discipline order).
        """
        if not self.queue:
            return
        for entry in self._drain_order():
            requirement = SandboxRequirement(entry.sandbox_name, entry.vcpus, entry.memory_gb)
            # Only existing hosts are considered on the retry path -- the drain
            # never *opens* hosts (admission already tried and failed to).
            chosen = choose_host(self.hosts, requirement, self.config.policy)
            if chosen is None:
                continue
            host = self._place_on(chosen, requirement)
            self.queue.remove(entry)
            self.admitted_from_queue += 1
            wait = max(time_s - entry.enqueued_s, 0.0)
            self.queue_wait_total_s += wait
            self._publish(
                SandboxAdmitted(time_s, entry.sandbox_name, host_name=host.name, queue_wait_s=wait)
            )

    def release(self, time_s: float, sandbox_name: str) -> None:
        """Free the capacity a sandbox held and retry the admission queue.

        A sandbox terminated while still *queued* is removed from the queue
        (it will never need placing).  Releasing an unknown sandbox is a
        no-op.
        """
        self.last_event_s = max(self.last_event_s, time_s)
        placement = self._placements.pop(sandbox_name, None)
        if placement is None:
            for entry in self.queue:
                if entry.sandbox_name == sandbox_name:
                    self.queue.remove(entry)
                    self.queue_abandoned += 1
                    break
            return
        host, vcpus, memory_gb = placement
        host.remove(sandbox_name, vcpus, memory_gb)
        self._full_shapes.clear()
        self.released += 1
        self._drain_queue(time_s)

    def host_of(self, sandbox_name: str) -> Optional[Host]:
        """The host currently running a sandbox, if it is placed."""
        placement = self._placements.get(sandbox_name)
        return placement[0] if placement is not None else None

    @property
    def num_placed(self) -> int:
        return len(self._placements)

    @property
    def queue_depth(self) -> int:
        """Current admission-queue depth."""
        return len(self.queue)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    @property
    def hourly_cost_usd(self) -> float:
        """Current provider-side spend rate: the price of every open host."""
        return fold(host.spec.hourly_cost_usd for host in self.hosts)

    def provider_cost_usd(self, now_s: float) -> float:
        """Provider spend accrued by ``now_s``: each host's price x open time."""
        return fold(
            host.spec.hourly_cost_usd * max(now_s - self._opened_at.get(host.name, 0.0), 0.0) / 3600.0
            for host in self.hosts
        )

    # ------------------------------------------------------------------
    # Periodic kernel process: utilisation sampling (delegated to a
    # shared PeriodicProcess so the tick-grid behaviour matches the autoscaler)
    # ------------------------------------------------------------------

    periodic = True  # an unbounded kernel.run() must not spin on sampler ticks

    def _record_sample(self, now: float) -> None:
        self.last_event_s = max(self.last_event_s, now)
        self.timeline.append(self.sample(now))

    def next_event_time(self, now: float) -> Optional[float]:
        return self._sampler.next_event_time(now) if self._sampler is not None else None

    def handle(self, now: float) -> None:
        if self._sampler is not None:
            self._sampler.handle(now)

    def sample(self, now_s: float) -> Dict[str, float]:
        """One fleet-utilisation sample at ``now_s``."""
        hosts = self.hosts
        num_hosts = len(hosts)
        placed = len(self._placements)
        stranded_vcpus = 0.0
        stranded_memory_gb = 0.0
        for host in hosts:
            stranded = host.stranded_capacity()
            stranded_vcpus += stranded["vcpus"]
            stranded_memory_gb += stranded["memory_gb"]
        return {
            "time_s": now_s,
            "hosts_open": float(num_hosts),
            "sandboxes_placed": float(placed),
            "queue_depth": float(len(self.queue)),
            "deployment_density": placed / num_hosts if num_hosts else 0.0,
            "mean_cpu_utilization": (
                fold(h.cpu_utilization for h in hosts) / num_hosts if num_hosts else 0.0
            ),
            "mean_memory_utilization": (
                fold(h.memory_utilization for h in hosts) / num_hosts if num_hosts else 0.0
            ),
            "stranded_vcpus": stranded_vcpus,
            "stranded_memory_gb": stranded_memory_gb,
            "fleet_hourly_cost_usd": self.hourly_cost_usd,
            "provider_cost_usd": self.provider_cost_usd(now_s),
            # The live user-side invoice, when a meter is attached: both cost
            # views on one clock.
            "billed_cost_usd": float(self._meter.cost_usd) if self._meter is not None else 0.0,
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Whole-run fleet summary: peaks and timeline means over the run.

        Mean columns average the periodic timeline samples; with sampling
        disabled they fall back to a single end-state sample.
        """
        rows = self.timeline or [self.sample(0.0)]

        def _mean(key: str) -> float:
            return fold(row[key] for row in rows) / len(rows)

        # Provider spend accrues to the latest admission/release/sample time,
        # not just the last sampler tick -- with sampling disabled the
        # fallback sample sits at t=0 and would zero the whole-run cost.
        end_time = max(rows[-1]["time_s"], self.last_event_s)
        return {
            "policy": self.config.policy.value,
            "num_zones": float(len(self.zones)),
            "hosts_open": float(len(self.hosts)),
            "peak_hosts_open": float(self.peak_hosts_open),
            "peak_sandboxes_placed": float(self.peak_placed),
            "admitted": float(self.admitted),
            "released": float(self.released),
            "unplaceable": float(len(self.unplaceable)),
            "queued": float(self.queued_total),
            "admitted_from_queue": float(self.admitted_from_queue),
            "queue_abandoned": float(self.queue_abandoned),
            "rejected_oversized": float(self.reject_reasons.get("oversized", 0)),
            "rejected_queue_full": float(self.reject_reasons.get("queue_full", 0)),
            "rejected_no_capacity": float(self.reject_reasons.get("no_capacity", 0)),
            "peak_queue_depth": float(self.peak_queue_depth),
            "final_queue_depth": float(len(self.queue)),
            "mean_queue_wait_s": (
                self.queue_wait_total_s / self.admitted_from_queue
                if self.admitted_from_queue
                else 0.0
            ),
            "peak_deployment_density": max(row["deployment_density"] for row in rows),
            "mean_deployment_density": _mean("deployment_density"),
            "mean_cpu_utilization": _mean("mean_cpu_utilization"),
            "mean_memory_utilization": _mean("mean_memory_utilization"),
            "fleet_hourly_cost_usd": self.hourly_cost_usd,
            "provider_cost_usd": self.provider_cost_usd(end_time),
        }
