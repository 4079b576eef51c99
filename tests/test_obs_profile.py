"""Kernel profiling: opt-in hooks count exactly what the kernel dispatched."""

import dataclasses
import json

from repro.obs.profile import KernelProfiler
from repro.sim.events import EventBus, SimEvent
from repro.sim.kernel import PeriodicProcess, SimulationKernel


@dataclasses.dataclass(frozen=True)
class _Ping(SimEvent):
    value: int = 0


class TestKernelProfiler:
    def test_dormant_by_default(self):
        kernel = SimulationKernel()
        bus = EventBus()
        assert kernel._profiler is None
        assert bus._profiler is None

    def test_counts_heap_events_by_kind(self):
        kernel = SimulationKernel()
        profiler = KernelProfiler().install(kernel)
        kernel.on("a", lambda event: None)
        kernel.on("b", lambda event: None)
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, "a")
        kernel.schedule(4.0, "b")
        kernel.run()
        profile = profiler.snapshot()
        assert profile.count_of("a") == 3
        assert profile.count_of("b") == 1
        assert profile.events_total == 4
        assert profile.by_kind["a"]["wall_s"] >= 0.0

    def test_counts_cancels_and_prunes(self):
        kernel = SimulationKernel()
        profiler = KernelProfiler().install(kernel)
        kernel.on("a", lambda event: None)
        keep = kernel.schedule(1.0, "a")
        doomed = [kernel.schedule(2.0 + i, "a") for i in range(5)]
        for event in doomed:
            kernel.cancel(event)
        kernel.run()
        profile = profiler.snapshot()
        assert profile.cancels == 5
        assert profile.prunes == 5
        assert profile.count_of("a") == 1
        del keep

    def test_max_heap_depth(self):
        kernel = SimulationKernel()
        profiler = KernelProfiler().install(kernel)
        kernel.on("a", lambda event: None)
        for t in range(10):
            kernel.schedule(float(t), "a")
        kernel.run()
        # Depth is observed after the pop: 10 scheduled -> 9 behind the first.
        assert profiler.snapshot().max_heap_depth == 9

    def test_counts_polled_processes(self):
        kernel = SimulationKernel()
        profiler = KernelProfiler().install(kernel)
        ticks = []
        process = PeriodicProcess(1.0, ticks.append)
        kernel.add_process(process)
        kernel.schedule(5.0, "noop")
        kernel.on("noop", lambda event: None)
        kernel.run(until=5.0)
        profile = profiler.snapshot()
        assert profile.process_events == len(ticks) == 6  # t = 0..5
        assert profile.count_of("process:PeriodicProcess") == 6

    def test_handler_registered_after_install_is_counted(self):
        kernel = SimulationKernel()
        seen = []
        kernel.on("early", seen.append)
        profiler = KernelProfiler().install(kernel)
        kernel.on("late", seen.append)
        for kind in ("early", "late"):
            kernel.schedule(1.0, kind)
        kernel.run()
        profile = profiler.snapshot()
        assert [event.kind for event in seen] == ["early", "late"]
        assert [profile.count_of(k) for k in ("early", "late")] == [1, 1]

    def test_uninstall_restores_the_raw_handlers(self):
        kernel = SimulationKernel()

        def early(event):
            pass

        def late(event):
            pass

        kernel.on("early", early)
        kernel.add_process(PeriodicProcess(1.0, lambda now: None))
        raw_tick = kernel._handlers["process:PeriodicProcess"]
        KernelProfiler().install(kernel)
        assert kernel._handlers["early"] is not early
        kernel.on("late", late)
        kernel.set_profiler(None)
        assert kernel._profiler is None
        raw = {"early": early, "process:PeriodicProcess": raw_tick, "late": late}
        assert kernel._handlers.keys() == raw.keys()
        for kind, handler in raw.items():
            assert kernel._handlers[kind] is handler

    def test_counts_bus_publishes_and_fanout(self):
        bus = EventBus()
        profiler = KernelProfiler().install(SimulationKernel(), bus)
        bus.subscribe(_Ping, lambda event: None)
        bus.subscribe(_Ping, lambda event: None)
        bus.subscribe(SimEvent, lambda event: None)
        for index in range(4):
            bus.publish(_Ping(time_s=float(index), value=index))
        profile = profiler.snapshot()
        stats = profile.publishes["_Ping"]
        assert stats["count"] == 4
        assert stats["fanout"] == 12  # 3 subscribers x 4 publishes
        assert profile.publish_total == 4

    def test_table_renders(self):
        kernel = SimulationKernel()
        profiler = KernelProfiler().install(kernel)
        kernel.on("a", lambda event: None)
        kernel.schedule(1.0, "a")
        kernel.run()
        lines = profiler.snapshot().table()
        assert any("a" in line for line in lines[1:])
        assert lines[0].startswith("events=1")


class TestProfiledRunsMatchUnprofiled:
    def test_same_event_sequence_with_and_without_profiler(self):
        """The dual code paths dispatch identically; the profiler only counts."""

        def run(profiled):
            kernel = SimulationKernel()
            if profiled:
                KernelProfiler().install(kernel)
            fired = []
            kernel.on("a", lambda event: fired.append((kernel.now, event.kind)))
            kernel.on("b", lambda event: fired.append((kernel.now, event.kind)))
            kernel.schedule(2.0, "b")
            kernel.schedule(1.0, "a")
            kernel.schedule(2.0, "a")
            kernel.run()
            return fired

        assert run(profiled=False) == run(profiled=True)


class TestProfiledBackpressurePoint:
    def test_full_stack_point_counts_match_the_pinned_profile(self, tmp_path):
        """A backpressure point with the scheduler on: counts pinned from the polled kernel."""
        from repro.analysis.backpressure import backpressure_point

        path = tmp_path / "profile.json"
        backpressure_point(
            {"queue_depth": 2, "placement_policy": "best_fit", "heterogeneity": "two_tier",
             "num_functions": 3, "duration_s": 10.0, "feedback": "on", "retry": "on",
             "tenants": 2, "profile_out": str(path)},
            2026,
        )
        profile = json.loads(path.read_text())
        assert {key: profile[key] for key in
                ("events_total", "process_events", "cancels", "prunes")} == {
            "events_total": 922, "process_events": 728, "cancels": 0, "prunes": 0,
        }
        assert {kind: stats["count"] for kind, stats in profile["by_kind"].items()
                if kind.startswith("process:")} == {
            "process:AutoscalerProcess": 54, "process:Fleet": 4,
            "process:SchedulerSim": 634, "process:TelemetryProcess": 36,
        }
