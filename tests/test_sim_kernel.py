"""Tests for the shared discrete-event kernel (`repro.sim.kernel`)."""

from __future__ import annotations

import pytest

from repro.sim.kernel import _TICK_SEQ, PeriodicProcess, SimulationKernel


def collect(kernel, kinds):
    log = []
    for kind in kinds:
        kernel.on(kind, lambda event, k=kind: log.append((event.time, k, dict(event.data))))
    return log


class TestEventOrdering:
    def test_events_fire_in_time_order(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["a", "b", "c"])
        kernel.schedule(3.0, "c")
        kernel.schedule(1.0, "a")
        kernel.schedule(2.0, "b")
        kernel.run()
        assert [entry[1] for entry in log] == ["a", "b", "c"]

    def test_same_time_ties_break_by_schedule_order(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["first", "second", "third"])
        kernel.schedule(1.0, "first")
        kernel.schedule(1.0, "second")
        kernel.schedule(1.0, "third")
        kernel.run()
        assert [entry[1] for entry in log] == ["first", "second", "third"]

    def test_clock_is_monotonic_and_tracks_events(self):
        kernel = SimulationKernel()
        times = []
        kernel.on("tick", lambda event: times.append(kernel.now))
        for t in (0.5, 1.5, 1.5, 4.0):
            kernel.schedule(t, "tick")
        kernel.run()
        assert times == sorted(times)
        assert kernel.now == 4.0

    def test_events_scheduled_from_handlers_interleave(self):
        kernel = SimulationKernel()
        log = []

        def on_spawn(event):
            log.append(("spawn", kernel.now))
            if kernel.now < 3.0:
                kernel.schedule_in(1.0, "spawn")

        kernel.on("spawn", on_spawn)
        kernel.schedule(1.0, "spawn")
        kernel.run()
        assert log == [("spawn", 1.0), ("spawn", 2.0), ("spawn", 3.0)]

    def test_missing_handler_raises(self):
        kernel = SimulationKernel()
        kernel.schedule(1.0, "unknown")
        with pytest.raises(KeyError):
            kernel.run()


class TestPeekStepCancelPause:
    def test_cancelled_events_are_skipped(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["keep", "drop"])
        kernel.schedule(1.0, "keep")
        handle = kernel.schedule(2.0, "drop")
        kernel.schedule(3.0, "keep")
        kernel.cancel(handle)
        kernel.run()
        assert [entry[1] for entry in log] == ["keep", "keep"]

    def test_run_until_leaves_later_events_queued(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, "x")
        executed = kernel.run(until=2.0)
        assert executed == 2
        assert kernel.now == 2.0
        assert [entry[0] for entry in kernel._heap] == [3.0]
        kernel.run()
        assert len(log) == 3

    def test_run_max_events(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, "x")
        assert kernel.run(max_events=0) == 0
        assert kernel.run(max_events=2) == 2
        assert [entry[0] for entry in log] == [1.0, 2.0]
        assert kernel.run(max_events=2) == 1  # resumes where it left off

    def test_run_stop_predicate(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, "x")
        kernel.run(stop=lambda: len(log) >= 2)
        assert len(log) == 2


class _CountdownProcess:
    """A non-periodic process firing at fixed times (co-simulation stand-in)."""

    def __init__(self, fire_times):
        self.remaining = list(fire_times)
        self.fired = []

    def next_event_time(self, now):
        return self.remaining[0] if self.remaining else None

    def handle(self, now):
        self.fired.append(now)
        self.remaining.pop(0)


class TestPolledProcesses:
    """Non-periodic processes ride the heap as ticks re-armed after each handle."""

    def test_process_events_interleave_with_heap_events(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["heap"])
        process = _CountdownProcess([1.5, 3.5])
        kernel.add_process(process)
        kernel.schedule(1.0, "heap")
        kernel.schedule(2.0, "heap")
        kernel.run()
        assert process.fired == [1.5, 3.5]
        assert [entry[0] for entry in log] == [1.0, 2.0]
        assert kernel.now == 3.5

    def test_heap_event_wins_exact_time_tie(self):
        kernel = SimulationKernel()
        order = []
        kernel.on("heap", lambda event: order.append("heap"))

        class TieProcess:
            def __init__(self):
                self.done = False

            def next_event_time(self, now):
                return None if self.done else 1.0

            def handle(self, now):
                order.append("process")
                self.done = True

        kernel.add_process(TieProcess())
        kernel.schedule(1.0, "heap")
        kernel.run()
        assert order == ["heap", "process"]

    def test_tick_is_armed_at_registration(self):
        kernel = SimulationKernel()
        process = _CountdownProcess([0.75])
        kernel.add_process(process)
        ((time_s, seq, tick),) = kernel._heap
        assert (time_s, seq, tick.kind) == (0.75, _TICK_SEQ, "process:_CountdownProcess")
        assert process.fired == []

    def test_process_added_mid_run_fires_at_its_time(self):
        kernel = SimulationKernel()
        order = []
        process = _CountdownProcess([1.5, 2.5])

        def register(event):
            order.append(("register", kernel.now))
            kernel.add_process(process)

        kernel.on("register", register)
        kernel.on("heap", lambda event: order.append(("heap", kernel.now)))
        kernel.schedule(1.0, "register")
        kernel.schedule(2.0, "heap")
        kernel.run()
        assert process.fired == [1.5, 2.5]
        assert order == [("register", 1.0), ("heap", 2.0)]
        assert kernel.now == 2.5

    def test_a_non_periodic_tick_alone_keeps_an_unbounded_run_alive(self):
        kernel = SimulationKernel()
        process = _CountdownProcess([1.0, 4.0, 9.0])
        kernel.add_process(process)
        assert kernel.run() == 3
        assert process.fired == [1.0, 4.0, 9.0]
        assert kernel._heap == []


class TestPeriodicProcess:
    def test_fixed_grid_ticks(self):
        ticks = []
        kernel = SimulationKernel()
        kernel.add_process(PeriodicProcess(3.0, ticks.append))
        kernel.run(until=9.0)
        assert ticks == [0.0, 3.0, 6.0, 9.0]

    def test_ticks_do_not_drift_at_an_inexact_interval(self):
        # 0.1 has no exact binary form: summing it ten times lands at
        # 0.9999999999999999, so tick k must be computed as start + k * dt.
        ticks = []
        kernel = SimulationKernel()
        kernel.add_process(PeriodicProcess(0.1, ticks.append, start_s=0.5))
        kernel.run(until=1.55)
        assert ticks == [0.5 + k * 0.1 for k in range(11)]
        assert ticks[5] == 1.0

    def test_unbounded_run_terminates_when_only_periodic_ticks_remain(self):
        ticks = []
        kernel = SimulationKernel()
        kernel.add_process(PeriodicProcess(1.0, ticks.append))
        kernel.on("work", lambda event: None)
        kernel.schedule(2.5, "work")
        executed = kernel.run()  # no until bound: must not spin forever
        # Periodic ticks interleave while heap work remains, then the run stops.
        assert executed >= 1
        assert kernel.now <= 2.5
        assert all(t <= 2.5 for t in ticks)

    def test_unbounded_run_with_only_periodic_process_executes_nothing(self):
        kernel = SimulationKernel()
        kernel.add_process(PeriodicProcess(1.0, lambda now: None))
        assert kernel.run() == 0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            PeriodicProcess(0.0, lambda now: None)


class TestHeapResidentTicks:
    """Process ticks live on the heap, ranked after events, then by registration."""

    def test_periodic_processes_are_not_polled(self):
        kernel = SimulationKernel()
        periodic = PeriodicProcess(1.0, lambda now: None)
        other = _CountdownProcess([0.5])
        kernel.add_process(periodic)
        kernel.add_process(other)
        assert kernel._processes == [periodic, other]
        # One tick per process, ranked by registration; nothing to poll.
        assert sorted((t, seq - _TICK_SEQ) for t, seq, _ in kernel._heap) == [(0.0, 0), (0.5, 1)]
        assert not hasattr(kernel, "_polled")

    def test_tick_fires_after_events_at_its_instant_even_ones_scheduled_then(self):
        kernel = SimulationKernel()
        order = []

        def on_event(event):
            order.append(event.kind)
            if event.kind == "first":
                kernel.schedule_in(0.0, "spawned")

        kernel.add_process(PeriodicProcess(1.0, lambda now: order.append(("tick", now)),
                                           start_s=1.0))
        for kind in ("first", "spawned"):
            kernel.on(kind, on_event)
        kernel.schedule(1.0, "first")
        kernel.run(until=2.0)
        assert order == ["first", "spawned", ("tick", 1.0), ("tick", 2.0)]

    @pytest.mark.parametrize("once_rank", [0, 1, 2])
    def test_exact_time_ties_between_processes_go_by_registration_rank(self, once_rank):
        kernel = SimulationKernel()
        order = []

        class Once:
            def __init__(self):
                self.done = False

            def next_event_time(self, now):
                return None if self.done else 1.0

            def handle(self, now):
                order.append("once")
                self.done = True

        names = iter(["a", "b"])
        for rank in range(3):
            if rank == once_rank:
                kernel.add_process(Once())
            else:
                name = next(names)
                kernel.add_process(PeriodicProcess(
                    5.0, lambda now, n=name: order.append(n), start_s=1.0
                ))
        kernel.run(until=1.0)
        expected = ["a", "b"]
        expected.insert(once_rank, "once")
        assert order == expected

    def test_ticks_dispatch_as_process_kind_events(self):
        kernel = SimulationKernel()
        ticks = []
        kernel.add_process(PeriodicProcess(2.0, ticks.append))
        assert kernel.run(until=0.0) == 1
        assert ticks == [0.0]
        ((time_s, _, tick),) = kernel._heap
        assert (time_s, tick.kind) == (2.0, "process:PeriodicProcess")

    def test_unbounded_run_stops_when_only_ticks_and_cancelled_events_remain(self):
        kernel = SimulationKernel()
        ticks = []
        kernel.add_process(PeriodicProcess(1.0, ticks.append))
        kernel.on("work", lambda event: None)
        kernel.schedule(2.5, "work")
        kernel.cancel(kernel.schedule(10.0, "work"))
        assert kernel.run() == 4  # ticks at 0, 1, 2 and the work at 2.5
        assert ticks == [0.0, 1.0, 2.0]
        assert kernel.now == 2.5

    def test_unbounded_run_keeps_ticking_while_a_polled_process_is_pending(self):
        """A non-periodic process's tick is pending work; periodic ticks are not."""
        kernel = SimulationKernel()
        ticks = []
        kernel.add_process(PeriodicProcess(1.0, ticks.append))
        process = _CountdownProcess([2.5])
        kernel.add_process(process)
        kernel.run()
        assert process.fired == [2.5]
        assert ticks == [0.0, 1.0, 2.0]
