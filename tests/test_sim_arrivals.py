"""Batched arrival generation + streaming: the perf PR's determinism gate.

The kernel hot-path optimisation is only allowed to exist because none of it
moves an event.  This suite pins that contract:

- the vectorized :class:`~repro.sim.arrivals.PoissonSource` /
  :class:`~repro.sim.arrivals.ConstantRateSource` reproduce the scalar
  reference loops **bit for bit**, for any chunk size;
- streaming a source into a kernel chunk-by-chunk dispatches the *identical*
  event sequence as scheduling every arrival eagerly -- including when
  handlers inject new events mid-run (the retry re-injection shape);
- a full cluster co-simulation (feedback + billing + client retries) is
  fingerprint-identical between eager scheduling and streamed arrivals at
  any chunk size, while the streamed heap stays bounded;
- the kernel's seq-reservation API preserves tie-break ranks and rejects
  past times;
- the EventBus dispatch cache (per-type resolved subscriber chains) stays
  coherent across subscribe/unsubscribe and behaves identically with the
  profiler attached;
- the cost meter's compiled fast path produces float-identical totals to
  the generic metering path.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billing.catalog import PlatformName
from repro.billing.meter import CostMeter, RequestResources
from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.obs.profile import KernelProfiler
from repro.platform.metrics import RequestOutcome
from repro.platform.presets import get_platform_preset
from repro.sim.arrivals import (
    DEFAULT_CHUNK_SIZE,
    ArrivalStream,
    ConstantRateSource,
    PoissonSource,
)
from repro.sim.events import EventBus, RequestCompleted, SimEvent
from repro.sim.kernel import SimulationKernel
from repro.sim.retry import RetryPolicy
from repro.workloads.functions import PYAES_FUNCTION
from repro.workloads.traffic import constant_rate_arrivals, poisson_arrivals

CHUNK_SIZES = st.sampled_from([1, 2, 7, 64, 1000, DEFAULT_CHUNK_SIZE])


def _scalar_poisson(rps, duration_s, seed, start_s=0.0):
    """The pre-vectorization implementation: one RNG draw per arrival."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / rps
    out = []
    t = start_s
    end = start_s + duration_s
    while True:
        t = t + rng.exponential(scale)
        if t >= end:
            break
        out.append(t)
    return out


# ----------------------------------------------------------------------
# Source-level equivalence
# ----------------------------------------------------------------------


class TestSourceEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        rps=st.floats(min_value=0.5, max_value=50.0),
        duration_s=st.floats(min_value=0.0, max_value=40.0),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_poisson_source_bit_identical_to_scalar_loop(self, rps, duration_s, seed):
        source = PoissonSource(rps, duration_s, seed=seed)
        assert source.times() == _scalar_poisson(rps, duration_s, seed)

    @settings(max_examples=25, deadline=None)
    @given(
        rps=st.floats(min_value=0.5, max_value=50.0),
        duration_s=st.floats(min_value=0.0, max_value=40.0),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        chunk_size=CHUNK_SIZES,
    )
    def test_poisson_chunk_size_never_moves_an_arrival(self, rps, duration_s, seed, chunk_size):
        reference = PoissonSource(rps, duration_s, seed=seed).times()
        chunked = []
        for chunk in PoissonSource(rps, duration_s, seed=seed).chunks(chunk_size):
            assert 0 < len(chunk) <= chunk_size
            chunked.extend(chunk)
        assert chunked == reference

    @settings(max_examples=15, deadline=None)
    @given(
        rps=st.floats(min_value=0.5, max_value=50.0),
        duration_s=st.floats(min_value=0.0, max_value=40.0),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_poisson_count_and_last_match_times(self, rps, duration_s, seed):
        source = PoissonSource(rps, duration_s, seed=seed)
        times = source.times()
        assert source.count() == len(times)
        assert source.last_arrival_s() == (times[-1] if times else 0.0)

    @settings(max_examples=15, deadline=None)
    @given(
        rps=st.floats(min_value=0.5, max_value=200.0),
        duration_s=st.floats(min_value=0.0, max_value=60.0),
        chunk_size=CHUNK_SIZES,
    )
    def test_constant_source_matches_listcomp_reference(self, rps, duration_s, chunk_size):
        source = ConstantRateSource(rps, duration_s)
        reference = constant_rate_arrivals(rps, duration_s)
        assert source.times() == reference
        chunked = [t for chunk in source.chunks(chunk_size) for t in chunk]
        assert chunked == reference
        assert source.count() == len(reference)

    def test_traffic_module_delegates_to_source(self):
        assert poisson_arrivals(8.0, 20.0, seed=7) == PoissonSource(8.0, 20.0, seed=7).times()

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            next(PoissonSource(1.0, 1.0).chunks(0))
        with pytest.raises(ValueError):
            next(ConstantRateSource(1.0, 1.0).chunks(-1))


# ----------------------------------------------------------------------
# Kernel seq reservation
# ----------------------------------------------------------------------


class TestSeqReservation:
    def test_reserved_block_is_contiguous_and_orders_before_later_events(self):
        kernel = SimulationKernel()
        base = kernel.reserve_seqs(3)
        fired = []
        kernel.on("a", lambda e: fired.append(("a", e.seq)))
        kernel.on("b", lambda e: fired.append(("b", e.seq)))
        # Schedule a same-time event *after* the reservation, then fill the
        # reserved ranks in reverse: the reserved events still win the tie.
        kernel.schedule(1.0, "b")
        kernel.schedule_at_seq(1.0, base + 2, "a")
        kernel.schedule_at_seq(1.0, base + 1, "a")
        kernel.schedule_at_seq(1.0, base + 0, "a")
        kernel.run()
        assert fired == [("a", base), ("a", base + 1), ("a", base + 2), ("b", base + 3)]

    def test_past_time_rejected(self):
        kernel = SimulationKernel()
        base = kernel.reserve_seqs(2)
        kernel.on("tick", lambda e: None)
        kernel.schedule(1.0, "tick")
        kernel.run()
        assert kernel.now == 1.0
        with pytest.raises(ValueError):
            kernel.schedule_at_seq(0.5, base, "tick")

    def test_negative_reservation_rejected(self):
        with pytest.raises(ValueError):
            SimulationKernel().reserve_seqs(-1)

    def test_payloadless_events_share_the_empty_mapping(self):
        kernel = SimulationKernel()
        first = kernel.schedule(1.0, "tick")
        second = kernel.schedule_in(2.0, "tick")
        assert first.data == {} and second.data == {}
        assert first.data is second.data  # the documented shared payload


# ----------------------------------------------------------------------
# Stream-level identity on a bare kernel
# ----------------------------------------------------------------------


def _trace_run(kernel, arrival_handler_extra=None):
    """Run a kernel, tracing every dispatched (kind, time, seq)."""
    trace = []

    def on_arrival(event):
        trace.append(("arrival", event.time, event.seq))
        stream = event.data.get("stream")
        if stream is not None:
            stream.push_next_chunk()
        if arrival_handler_extra is not None:
            arrival_handler_extra(kernel, len(trace))

    kernel.on("arrival", on_arrival)
    kernel.on("injected", lambda e: trace.append(("injected", e.time, e.seq)))
    kernel.run()
    return trace


class TestArrivalStreamIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        rps=st.floats(min_value=1.0, max_value=40.0),
        duration_s=st.floats(min_value=0.0, max_value=30.0),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        chunk_size=CHUNK_SIZES,
    )
    def test_streamed_dispatch_identical_to_eager(self, rps, duration_s, seed, chunk_size):
        # Handlers inject extra events mid-run (every third arrival), the
        # shape retry re-injection takes: their seqs interleave with the
        # reserved block in both variants.
        def inject(kernel, count):
            if count % 3 == 0:
                kernel.schedule_in(0.25, "injected")

        eager_kernel = SimulationKernel()
        for t in PoissonSource(rps, duration_s, seed=seed).times():
            eager_kernel.schedule(t, "arrival")
        eager = _trace_run(eager_kernel, inject)

        streamed_kernel = SimulationKernel()
        stream = ArrivalStream(PoissonSource(rps, duration_s, seed=seed), chunk_size=chunk_size)
        stream.attach(streamed_kernel, "arrival")
        streamed = _trace_run(streamed_kernel, inject)

        assert streamed == eager

    def test_streamed_heap_stays_bounded(self):
        chunk_size = 32
        kernel = SimulationKernel()
        profiler = KernelProfiler()
        profiler.install(kernel)
        source = ConstantRateSource(100.0, 20.0)  # 2000 arrivals
        stream = ArrivalStream(source, chunk_size=chunk_size)
        count = stream.attach(kernel, "arrival")
        assert count == 2000
        fired = []

        def on_arrival(event):
            fired.append(event.time)
            s = event.data.get("stream")
            if s is not None:
                s.push_next_chunk()

        kernel.on("arrival", on_arrival)
        kernel.run()
        assert len(fired) == 2000
        assert stream.pending == 0
        # Eager scheduling would have held all 2000 arrivals at once; the
        # stream never exceeds one in-flight chunk plus the refill.
        assert profiler.max_heap_depth <= 2 * chunk_size

    def test_double_attach_rejected(self):
        stream = ArrivalStream(ConstantRateSource(1.0, 2.0))
        stream.attach(SimulationKernel(), "arrival")
        with pytest.raises(RuntimeError):
            stream.attach(SimulationKernel(), "arrival")


# ----------------------------------------------------------------------
# Cluster-level identity: streamed == eager, retries included
# ----------------------------------------------------------------------


class _EagerCluster(ClusterSimulator):
    """Schedules every arrival up front (the pre-streaming behaviour)."""

    def _arrivals(self, deployment):
        return super()._arrivals(deployment).times()


def _chunked_cluster_class(chunk_size):
    class _ChunkedCluster(ClusterSimulator):
        def _arrivals(self, deployment):
            return ArrivalStream(super()._arrivals(deployment), chunk_size=chunk_size)

    return _ChunkedCluster


def _cluster(cls, seed):
    preset = get_platform_preset("aws_lambda_like")
    deployments = []
    for index in range(2):
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5),
            name=f"fn-{index:02d}",
        )
        deployments.append(
            FunctionDeployment(
                function=function,
                platform=preset,
                rps=8.0,
                duration_s=5.0,
                arrival_process="poisson",
            )
        )
    return cls(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=1.0, memory_gb=2.0),
            max_hosts=1,
            queue_depth=0,
            sample_interval_s=2.0,
        ),
        billing_platform="aws_lambda",
        seed=seed,
        feedback="on",
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.3, jitter=0.1),
    )


def _fingerprint(result):
    return json.dumps(
        {
            "summary": result.summary(),
            "timeline": result.fleet.timeline,
            "unplaceable": result.fleet.unplaceable,
            "invoice_by_attempt": (
                sorted(result.meter.cost_usd_by_attempt.items())
                if result.meter is not None
                else None
            ),
        },
        sort_keys=True,
    ).encode()


class TestClusterStreamingIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        chunk_size=st.sampled_from([1, 7, 64, DEFAULT_CHUNK_SIZE]),
    )
    def test_streamed_cluster_fingerprint_identical_to_eager(self, seed, chunk_size):
        eager = _fingerprint(_cluster(_EagerCluster, seed).run())
        chunked = _fingerprint(_cluster(_chunked_cluster_class(chunk_size), seed).run())
        assert chunked == eager

    def test_retries_actually_exercised(self):
        # The identity above is only meaningful if the workload produces
        # retry re-injections that interleave with the reserved seq block.
        result = _cluster(ClusterSimulator, seed=3).run()
        assert sum(m.retry_arrivals for m in result.metrics.values()) > 0


# ----------------------------------------------------------------------
# EventBus dispatch cache
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _CacheEvent(SimEvent):
    value: int = 0


class TestBusDispatchCache:
    def test_subscribe_after_publish_invalidates_cache(self):
        bus = EventBus()
        seen = {"first": 0, "second": 0}
        bus.subscribe(_CacheEvent, lambda e: seen.__setitem__("first", seen["first"] + 1))
        bus.publish(_CacheEvent(time_s=0.0))  # warms the resolved chain
        bus.subscribe(_CacheEvent, lambda e: seen.__setitem__("second", seen["second"] + 1))
        bus.publish(_CacheEvent(time_s=1.0))
        assert seen == {"first": 2, "second": 1}

    def test_unsubscribe_after_publish_invalidates_cache(self):
        bus = EventBus()
        seen = {"count": 0}
        callback = bus.subscribe(_CacheEvent, lambda e: seen.__setitem__("count", seen["count"] + 1))
        bus.publish(_CacheEvent(time_s=0.0))
        bus.unsubscribe(_CacheEvent, callback)
        bus.publish(_CacheEvent(time_s=1.0))
        assert seen["count"] == 1

    def test_base_type_subscriber_added_late_is_picked_up(self):
        bus = EventBus()
        order = []
        bus.subscribe(_CacheEvent, lambda e: order.append("exact"))
        bus.publish(_CacheEvent(time_s=0.0))
        bus.subscribe(SimEvent, lambda e: order.append("base"))
        bus.publish(_CacheEvent(time_s=1.0))
        # Exact subscribers still run before base subscribers after the
        # cache rebuild.
        assert order == ["exact", "exact", "base"]

    def test_profiled_publish_delivers_identically_and_tallies(self):
        plain_bus, profiled_bus = EventBus(), EventBus()
        profiler = KernelProfiler()
        profiled_bus.set_profiler(profiler)
        plain_seen, profiled_seen = [], []
        for bus, seen in ((plain_bus, plain_seen), (profiled_bus, profiled_seen)):
            bus.subscribe(_CacheEvent, lambda e, s=seen: s.append(("exact", e.value)))
            bus.subscribe(SimEvent, lambda e, s=seen: s.append(("base", e.value)))
        for index in range(10):
            plain_bus.publish(_CacheEvent(time_s=float(index), value=index))
            profiled_bus.publish(_CacheEvent(time_s=float(index), value=index))
        assert profiled_seen == plain_seen
        stats = profiler.snapshot().publishes["_CacheEvent"]
        assert stats["count"] == 10
        assert stats["fanout"] == 20  # two subscribers per publish


# ----------------------------------------------------------------------
# Cost meter: compiled fast path == generic metering, float for float
# ----------------------------------------------------------------------


class TestMeterFastPathIdentity:
    @settings(max_examples=10, deadline=None)
    @given(
        platform=st.sampled_from(
            [PlatformName.AWS_LAMBDA, PlatformName.GCP_RUN_REQUEST, PlatformName.AZURE_CONSUMPTION]
        ),
        durations=st.lists(
            st.floats(min_value=1e-4, max_value=30.0), min_size=1, max_size=20
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_fast_path_totals_equal_generic_path_exactly(self, platform, durations, seed):
        rng = np.random.default_rng(seed)
        resources = RequestResources(
            alloc_vcpus=1.0, alloc_memory_gb=2.0, used_cpu_seconds=0.16, used_memory_gb=0.09
        )
        outcomes = []
        t = 0.0
        for index, duration in enumerate(durations):
            cold = bool(rng.integers(0, 2))
            init_s = 0.5 if cold else 0.0
            outcomes.append(
                RequestOutcome(
                    request_id=f"req-{index:04d}",
                    arrival_s=t,
                    origin_s=t,
                    start_s=t + init_s,
                    completion_s=t + init_s + duration,
                    execution_duration_s=duration,
                    cold_start=cold,
                    init_duration_s=init_s,
                    queue_delay_s=0.0,
                    sandbox_name=f"fn-00-{index % 3}",
                    attempts=int(rng.integers(1, 4)),
                )
            )
            t += float(rng.uniform(0.0, 1.0))

        bus = EventBus()
        fast = CostMeter(platform).attach(bus, resources)
        for outcome in outcomes:
            bus.publish(RequestCompleted(time_s=outcome.completion_s, outcome=outcome))

        generic = CostMeter(platform)
        for outcome in outcomes:
            generic.meter_outcome(outcome, resources)

        assert fast.cost_usd == generic.cost_usd
        assert fast.billable_cpu_seconds == generic.billable_cpu_seconds
        assert fast.billable_memory_gb_seconds == generic.billable_memory_gb_seconds
        assert fast.actual_cpu_seconds == generic.actual_cpu_seconds
        assert fast.actual_memory_gb_seconds == generic.actual_memory_gb_seconds
        assert fast.invocation_fee_usd == generic.invocation_fee_usd
        assert fast.num_requests == generic.num_requests
        assert fast.num_cold_starts == generic.num_cold_starts
        assert sorted(fast.cost_usd_by_attempt.items()) == sorted(
            generic.cost_usd_by_attempt.items()
        )
