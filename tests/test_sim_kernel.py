"""Tests for the shared discrete-event kernel (`repro.sim.kernel`)."""

from __future__ import annotations

import pytest

from repro.sim.kernel import Event, SimulationKernel


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

    def test_default_handler_catches_unregistered_kinds(self):
        kernel = SimulationKernel()
        seen = []
        kernel.on_default(lambda event: seen.append(event.kind))
        kernel.schedule(1.0, "anything")
        kernel.run()
        assert seen == ["anything"]


class TestPeekStepCancelPause:
    def test_peek_returns_next_time_without_executing(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        kernel.schedule(2.5, "x")
        assert kernel.peek() == 2.5
        assert log == []
        assert kernel.now == 0.0

    def test_peek_empty_returns_none(self):
        assert SimulationKernel().peek() is None

    def test_step_executes_exactly_one_event(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        kernel.schedule(1.0, "x")
        kernel.schedule(2.0, "x")
        event = kernel.step()
        assert isinstance(event, Event)
        assert len(log) == 1
        assert kernel.now == 1.0
        assert kernel.step() is not None
        assert kernel.step() is None

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
        assert kernel.peek() == 3.0
        kernel.run()
        assert len(log) == 3

    def test_run_max_events(self):
        kernel = SimulationKernel()
        collect(kernel, ["x"])
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, "x")
        assert kernel.run(max_events=2) == 2
        assert kernel.peek() == 3.0

    def test_pause_from_handler_stops_run(self):
        kernel = SimulationKernel()
        log = []

        def handler(event):
            log.append(kernel.now)
            kernel.pause()

        kernel.on("x", handler)
        kernel.schedule(1.0, "x")
        kernel.schedule(2.0, "x")
        assert kernel.run() == 1
        assert log == [1.0]
        assert kernel.run() == 1  # resumes where it left off
        assert log == [1.0, 2.0]

    def test_run_stop_predicate(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, "x")
        kernel.run(stop=lambda: len(log) >= 2)
        assert len(log) == 2


class _CountdownProcess:
    """A polled process firing at fixed times (co-simulation stand-in)."""

    def __init__(self, fire_times):
        self.remaining = list(fire_times)
        self.fired = []

    def next_event_time(self, now):
        return self.remaining[0] if self.remaining else None

    def handle(self, now):
        self.fired.append(now)
        self.remaining.pop(0)


class TestPolledProcesses:
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

    def test_peek_sees_process_times(self):
        kernel = SimulationKernel()
        kernel.add_process(_CountdownProcess([0.75]))
        assert kernel.peek() == 0.75


class TestPeriodicProcess:
    def test_fixed_grid_ticks(self):
        from repro.sim.kernel import PeriodicProcess, SimulationKernel

        ticks = []
        kernel = SimulationKernel()
        kernel.add_process(PeriodicProcess(3.0, ticks.append))
        kernel.run(until=9.0)
        assert ticks == [0.0, 3.0, 6.0, 9.0]

    def test_unbounded_run_terminates_when_only_periodic_ticks_remain(self):
        from repro.sim.kernel import PeriodicProcess, SimulationKernel

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
        from repro.sim.kernel import PeriodicProcess, SimulationKernel

        kernel = SimulationKernel()
        kernel.add_process(PeriodicProcess(1.0, lambda now: None))
        assert kernel.run() == 0

    def test_invalid_interval(self):
        import pytest

        from repro.sim.kernel import PeriodicProcess

        with pytest.raises(ValueError):
            PeriodicProcess(0.0, lambda now: None)


class TestHeapResidentTicks:
    """Periodic processes fire as heap ticks ranked after events, then by registration."""

    def test_periodic_processes_are_not_polled(self):
        from repro.sim.kernel import PeriodicProcess

        kernel = SimulationKernel()
        periodic = PeriodicProcess(1.0, lambda now: None)
        polled = _CountdownProcess([0.5])
        kernel.add_process(periodic)
        kernel.add_process(polled)
        assert kernel._processes == [periodic, polled]
        assert kernel._polled == [(1, polled)]

    def test_tick_fires_after_events_at_its_instant_even_ones_scheduled_then(self):
        from repro.sim.kernel import PeriodicProcess

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

    @pytest.mark.parametrize("polled_rank", [0, 1, 2])
    def test_exact_time_ties_between_processes_go_by_registration_rank(self, polled_rank):
        from repro.sim.kernel import PeriodicProcess

        kernel = SimulationKernel()
        order = []

        class Once:
            def __init__(self):
                self.done = False

            def next_event_time(self, now):
                return None if self.done else 1.0

            def handle(self, now):
                order.append("polled")
                self.done = True

        names = iter(["a", "b"])
        for rank in range(3):
            if rank == polled_rank:
                kernel.add_process(Once())
            else:
                name = next(names)
                kernel.add_process(PeriodicProcess(
                    5.0, lambda now, n=name: order.append(n), start_s=1.0
                ))
        kernel.run(until=1.0)
        expected = ["a", "b"]
        expected.insert(polled_rank, "polled")
        assert order == expected

    def test_step_dispatches_ticks_like_run(self):
        from repro.sim.kernel import PeriodicProcess

        kernel = SimulationKernel()
        ticks = []
        kernel.add_process(PeriodicProcess(2.0, ticks.append))
        assert kernel.peek() == 0.0
        event = kernel.step()
        assert (event.kind, event.time) == ("process:PeriodicProcess", 0.0)
        assert ticks == [0.0]
        assert kernel.peek() == 2.0

    def test_unbounded_run_stops_when_only_ticks_and_cancelled_events_remain(self):
        from repro.sim.kernel import PeriodicProcess

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
        from repro.sim.kernel import PeriodicProcess

        kernel = SimulationKernel()
        ticks = []
        kernel.add_process(PeriodicProcess(1.0, ticks.append))
        process = _CountdownProcess([2.5])
        kernel.add_process(process)
        kernel.run()
        assert process.fired == [2.5]
        assert ticks == [0.0, 1.0, 2.0]
