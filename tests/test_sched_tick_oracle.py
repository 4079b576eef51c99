"""The folded, allocation-free scheduler tick against the tick it replaced, bit for bit.

:class:`SchedulerSim` reads its frozen config once and computes each tick
without throwaway lists: a running minimum for the next event time, the
CPU pools' ``throttled`` flags read directly, one pick key per policy and
one key comparison for preemption.  The oracle below is the earlier
implementation's tick path, kept verbatim: the methods of ``SchedulerSim``
and ``pick_next`` that re-derived config on every tick.  Hypothesis drives
both through the same configs and task sets (CFS and EEVDF, tick and event
enforcement, one or two CPUs, bandwidth on and off, 250 and 1000 Hz,
5-100 ms periods, random grid phases, compute/IO mixes, arrivals on and off
the tick grid, and tied vruntimes); every task result, every bandwidth
statistic, the end time, the kernel events executed and the published
feedback history must agree exactly (compared as ``float.hex``).

The clock stays at offsets where the earlier tick terminates: it livelocks
far from t = 0 (``tests/test_large_offsets.py``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.cgroup import EXHAUSTED_RUNTIME_S, BandwidthConfig
from repro.sched.engine import QuotaEnforcement, SchedulerConfig, SchedulerSim, SimulationResult, _CpuState
from repro.sched.policies import PolicyParameters, SchedulingPolicy, max_burst_s
from repro.sched.task import SimTask, TaskPhase, TaskState
from repro.sim.feedback import PublishedRate
from repro.sim.kernel import SimulationKernel

_TIME_EPS_S = 1e-12
_GRID_SNAP = 1e-9
_ON_GRID_TOL = 1e-7
_SLICE_EXPIRY_SLACK_S = 1e-9
#: Far above what any drawn scenario needs; a livelocked run hits it.
MAX_EVENTS = 200_000


# ----------------------------------------------------------------------
# The oracle: the per-tick config reads and list-building tick, verbatim
# ----------------------------------------------------------------------


def pick_next(runnable: Sequence[SimTask], params: PolicyParameters, now_s: float) -> Optional[SimTask]:
    """Pick the next task to run among runnable tasks on one CPU.

    CFS picks the task with the smallest weighted vruntime.  EEVDF picks the
    eligible task with the earliest virtual deadline; with equal weights and
    the simulator's full-decay eligibility this reduces to the smallest
    ``vruntime + slice/weight``, which preserves EEVDF's preference for tasks
    with shorter slices.
    """
    if not runnable:
        return None
    if params.policy is SchedulingPolicy.CFS:
        return min(runnable, key=lambda t: (t.vruntime, t.name))
    # EEVDF: virtual deadline = vruntime + slice / weight.
    def deadline(task: SimTask) -> float:
        return task.vruntime + params.eevdf_base_slice_s / task.weight

    return min(runnable, key=lambda t: (deadline(t), t.name))


class _ParentCpuState(_CpuState):
    """The earlier per-CPU state, which also stored the (never read) last accounting time."""

    __slots__ = ("last_account",)

    def __init__(self, cpu_id, pool) -> None:
        super().__init__(cpu_id, pool)
        self.last_account = 0.0


class ParentSchedulerSim(SchedulerSim):
    """The engine with the earlier tick path (every other method is shared)."""

    def __init__(self, config, tasks) -> None:
        super().__init__(config, tasks)
        self._cpus = [_ParentCpuState(i, self.controller.local[i]) for i in range(config.num_cpus)]

    def finalize(self) -> SimulationResult:
        """Collect results after a shared-kernel run (idempotent).

        Unfinished tasks are advanced to the engine's horizon, open
        run/throttle segments are closed, and the per-task results plus
        bandwidth statistics are returned.  Call it once the kernel has
        stopped driving the engine (:meth:`run` ends with it).
        """
        if not self._finalized:
            self._finalized = True
            if not self._all_done():
                self._advance_running(max(self._now, self.config.horizon_s))
            self._close_open_segments()
            self._quiesce_feedback(self._now)
        return self._collect()

    def next_event_time(self, now: float) -> Optional[float]:
        """When this engine next needs the clock (asked after every :meth:`handle`).

        Returns ``None`` once the next event would fall strictly beyond the
        configured horizon -- exactly where the standalone :meth:`run` loop
        stops -- so a shared kernel never drives the engine past it.
        """
        if self._finalized:
            return None
        next_time = self._next_event_time()
        if next_time is None or next_time > self.config.horizon_s:
            # Quiet for good: stop throttling the platform layer too.
            self._quiesce_feedback(now)
            return None
        return next_time

    def handle(self, now: float) -> None:
        """Advance running tasks to ``now`` and process that instant's events."""
        self._advance_running(now)
        self._handle_events()
        self._dispatch()

    def _next_grid_point(self, phase: float, interval: float) -> float:
        """The first grid point strictly after the current time."""
        k = math.floor((self._now - phase) / interval + _GRID_SNAP) + 1
        return phase + k * interval

    def _next_event_time(self) -> Optional[float]:
        candidates: List[float] = []
        if self._pending:
            candidates.append(self._pending[0].arrival_s)
        if self._wakeups:
            candidates.append(min(self._wakeups.values()))
        any_running = any(cpu.running is not None for cpu in self._cpus)
        if any_running:
            candidates.append(self._next_grid_point(self.config.tick_phase_s, self.config.tick_interval_s))
        if self.config.bandwidth.enabled and (
            any_running or any(self.controller.is_throttled(c.cpu_id) for c in self._cpus)
        ):
            candidates.append(
                self._next_grid_point(self.config.period_phase_s, self.config.bandwidth.period_s)
            )
        burst_limit = max_burst_s(self.config.policy)
        for cpu in self._cpus:
            if cpu.running is None:
                continue
            candidates.append(self._now + cpu.running.phase_remaining_s)
            if burst_limit is not None:
                candidates.append(cpu.burst_start + burst_limit)
            if (
                self.config.quota_enforcement is QuotaEnforcement.EVENT
                and self.config.bandwidth.enabled
            ):
                budget = self._remaining_budget(cpu)
                if budget is not None:
                    candidates.append(self._now + max(budget, 0.0))
        if not candidates:
            return None
        return min(candidates)

    def _remaining_budget(self, cpu: _CpuState) -> Optional[float]:
        """Runtime left before this CPU's cgroup budget is exhausted (event enforcement)."""
        pool = self.controller.local[cpu.cpu_id]
        budget = pool.runtime_remaining_s + self.controller.global_runtime_s - cpu.unaccounted
        if budget == float("inf"):
            return None
        return budget

    def _advance_running(self, new_time: float) -> None:
        delta = new_time - self._now
        if delta < -_TIME_EPS_S:
            raise RuntimeError(f"time went backwards: {self._now} -> {new_time}")
        delta = max(delta, 0.0)
        for cpu in self._cpus:
            task = cpu.running
            if task is None:
                continue
            consumed = min(delta, task.phase_remaining_s)
            task.phase_remaining_s -= consumed
            task.cpu_consumed_s += consumed
            task.vruntime += consumed / task.weight
            cpu.unaccounted += consumed
            if self._fb_rate is not None:
                # A running task both demanded and received `consumed` (it
                # stops demanding once its compute phase ends mid-interval).
                self._fb_delivered_s += consumed
                self._fb_demanded_s += consumed
        if self._fb_rate is not None and self._throttle_wait_since:
            # Throttled tasks demanded the whole interval but received none.
            self._fb_demanded_s += delta * len(self._throttle_wait_since)
        self._now = new_time

    def _on_grid(self, phase: float, interval: float) -> bool:
        offset = (self._now - phase) / interval
        return abs(offset - round(offset)) < _ON_GRID_TOL

    def _handle_events(self) -> None:
        now = self._now
        # 1. Arrivals.
        while self._pending and self._pending[0].arrival_s <= now + _TIME_EPS_S:
            task = self._pending.pop(0)
            task.state = TaskState.RUNNABLE
            cpu_id = self._least_loaded_cpu()
            self._affinity[task.name] = cpu_id
            self._runqueues[cpu_id].append(task)

        # 2. IO wake-ups.
        for name, wake_time in list(self._wakeups.items()):
            if wake_time <= now + _TIME_EPS_S:
                del self._wakeups[name]
                task = self._task_by_name(name)
                task.advance_phase()
                self._after_phase_transition(task)

        # 3. Compute-phase completions (account consumed runtime at the switch).
        for cpu in self._cpus:
            task = cpu.running
            if task is None or task.phase_remaining_s > _TIME_EPS_S:
                continue
            self._account_cpu(cpu)
            self._stop_running(cpu, record_throttle_wait=False)
            task.advance_phase()
            self._after_phase_transition(task)

        # 4. Period refill (before the tick so a coinciding tick sees fresh quota).
        if self.config.bandwidth.enabled and self._on_grid(
            self.config.period_phase_s, self.config.bandwidth.period_s
        ):
            self._publish_feedback(now)
            unthrottled = self.controller.refill(now)
            for cpu_id in unthrottled:
                for task in self._runqueues[cpu_id]:
                    if task.name in self._throttle_wait_since:
                        started = self._throttle_wait_since.pop(task.name)
                        task.throttle_segments.append((started, now - started))
                        task.state = TaskState.RUNNABLE

        # 5. Scheduler tick: accounting, throttling, and preemption points.
        if self._on_grid(self.config.tick_phase_s, self.config.tick_interval_s):
            for cpu in self._cpus:
                if cpu.running is not None:
                    self._account_and_maybe_throttle(cpu)
            self._preempt_if_needed()

        # 5b. Event-driven quota enforcement (§4.3 proposal): throttle a running
        # task the instant its remaining budget hits zero rather than waiting
        # for the next tick.
        if (
            self.config.quota_enforcement is QuotaEnforcement.EVENT
            and self.config.bandwidth.enabled
        ):
            for cpu in self._cpus:
                if cpu.running is None:
                    continue
                budget = self._remaining_budget(cpu)
                if budget is not None and budget <= EXHAUSTED_RUNTIME_S:
                    self._account_cpu(cpu)
                    if self.controller.throttle_if_exhausted(cpu.cpu_id, self._now) and cpu.running is not None:
                        task = cpu.running
                        self._stop_running(cpu, record_throttle_wait=True)
                        task.state = TaskState.THROTTLED

        # 6. EEVDF slice expiry: an extra accounting point for the running task.
        burst_limit = max_burst_s(self.config.policy)
        if burst_limit is not None:
            for cpu in self._cpus:
                task = cpu.running
                if task is None:
                    continue
                if now - cpu.burst_start >= burst_limit - _SLICE_EXPIRY_SLACK_S:
                    self._account_and_maybe_throttle(cpu)
                    if cpu.running is not None:
                        cpu.burst_start = now
            self._preempt_if_needed()

    def _account_cpu(self, cpu: _CpuState) -> bool:
        """Charge unaccounted runtime; returns True when the CPU got throttled."""
        if cpu.unaccounted <= 0:
            return self.controller.is_throttled(cpu.cpu_id)
        throttled = self.controller.account(cpu.cpu_id, cpu.unaccounted, self._now)
        cpu.unaccounted = 0.0
        cpu.last_account = self._now
        return throttled

    def _preempt_if_needed(self) -> None:
        """At a tick, let a waiting task with a smaller scheduling key take the CPU."""
        for cpu in self._cpus:
            if self.controller.is_throttled(cpu.cpu_id):
                continue
            waiting = [
                t
                for t in self._runqueues[cpu.cpu_id]
                if t.state is TaskState.RUNNABLE and t is not cpu.running
            ]
            if not waiting:
                continue
            best_waiting = pick_next(waiting, self.config.policy, self._now)
            current = cpu.running
            if current is None:
                continue
            candidate = pick_next([current, best_waiting], self.config.policy, self._now)
            if candidate is not current:
                self._account_cpu(cpu)
                self._stop_running(cpu, record_throttle_wait=False)
                current.state = TaskState.RUNNABLE

    def _dispatch(self) -> None:
        """Put runnable tasks on idle, unthrottled CPUs."""
        for cpu in self._cpus:
            if cpu.running is not None or self.controller.is_throttled(cpu.cpu_id):
                continue
            runnable = [t for t in self._runqueues[cpu.cpu_id] if t.state is TaskState.RUNNABLE]
            chosen = pick_next(runnable, self.config.policy, self._now)
            if chosen is None:
                continue
            chosen.state = TaskState.RUNNING
            cpu.running = chosen
            cpu.segment_start = self._now
            cpu.burst_start = self._now
            cpu.last_account = self._now
            cpu.unaccounted = 0.0
            if chosen.name in self._throttle_wait_since:
                started = self._throttle_wait_since.pop(chosen.name)
                chosen.throttle_segments.append((started, self._now - started))

    def _task_by_name(self, name: str) -> SimTask:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(name)

    def _close_open_segments(self) -> None:
        for cpu in self._cpus:
            if cpu.running is not None and self._now > cpu.segment_start + _TIME_EPS_S:
                cpu.running.run_segments.append((cpu.segment_start, self._now))
                cpu.running = None
        for name, started in list(self._throttle_wait_since.items()):
            task = self._task_by_name(name)
            if self._now > started + _TIME_EPS_S:
                task.throttle_segments.append((started, self._now - started))
            del self._throttle_wait_since[name]


# ----------------------------------------------------------------------
# Driving both through one scenario
# ----------------------------------------------------------------------

_COMPUTE = st.one_of(
    st.just(0.0),
    st.sampled_from([0.001, 0.004, 0.02]),
    st.floats(min_value=1e-4, max_value=0.15, allow_nan=False),
)
_IO = st.floats(min_value=1e-3, max_value=0.05, allow_nan=False)


@st.composite
def _task_specs(draw, t0: float, tick_s: float, tick_phase_s: float):
    specs = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        if specs and draw(st.booleans()):
            # A twin of an earlier task: same arrival, phases and weight,
            # so the two tie in vruntime and only the name orders them.
            arrival, phases, weight = specs[draw(st.integers(0, len(specs) - 1))][1:]
        else:
            if draw(st.booleans()):
                # On a tick, or a hair off it: within and beyond the time
                # and grid tolerances.
                jitter = draw(st.sampled_from([0.0, 0.0, 1e-13, 5e-10, -5e-10, 1e-6]))
                arrival = max(t0 + tick_phase_s + draw(st.integers(0, 60)) * tick_s + jitter, 0.0)
            else:
                arrival = t0 + draw(st.floats(min_value=0.0, max_value=0.3, allow_nan=False))
            bursts = draw(st.lists(st.tuples(_COMPUTE, _IO), min_size=1, max_size=3))
            phases = []
            for compute_s, io_s in bursts:
                phases += [("compute", compute_s), ("io", io_s)]
            if draw(st.booleans()):
                phases.pop()
            weight = draw(st.sampled_from([1.0, 1.0, 2.0, 0.5]))
        specs.append((f"t{index}", arrival, phases, weight))
    return specs


@st.composite
def _scenarios(draw):
    tick_hz = draw(st.sampled_from([250, 1000]))
    tick_s = 1.0 / tick_hz
    period_s = draw(st.one_of(
        st.sampled_from([0.005, 0.01, 0.02, 0.1]),
        st.floats(min_value=0.005, max_value=0.1, allow_nan=False),
    ))
    num_cpus = draw(st.integers(min_value=1, max_value=2))
    if draw(st.booleans()):
        quota_s = draw(st.floats(min_value=0.05, max_value=0.8)) * num_cpus * period_s
    else:
        quota_s = float("inf")
    tick_phase_s = draw(st.one_of(st.just(0.0), st.floats(0.0, tick_s, exclude_max=True)))
    t0 = draw(st.sampled_from([0.0, 1.0, 3600.0]))
    config = SchedulerConfig(
        bandwidth=BandwidthConfig(period_s=period_s, quota_s=quota_s),
        tick_hz=tick_hz,
        num_cpus=num_cpus,
        policy=PolicyParameters(policy=draw(st.sampled_from(SchedulingPolicy))),
        tick_phase_s=tick_phase_s,
        period_phase_s=draw(st.one_of(st.just(0.0), st.floats(0.0, period_s, exclude_max=True))),
        horizon_s=t0 + draw(st.sampled_from([0.5, 1.5])),
        max_events=MAX_EVENTS,
        quota_enforcement=draw(st.sampled_from(QuotaEnforcement)),
    )
    return config, draw(_task_specs(t0, tick_s, tick_phase_s))


def _tasks(specs) -> List[SimTask]:
    return [
        SimTask(
            phases=[TaskPhase.compute(d) if kind == "compute" else TaskPhase.io(d) for kind, d in phases],
            arrival_s=arrival,
            name=name,
            weight=weight,
        )
        for name, arrival, phases, weight in specs
    ]


def _hex(value: Optional[float]) -> Optional[str]:
    return None if value is None else value.hex()


def _bits(result: SimulationResult):
    tasks = [
        (
            name,
            task.arrival_s.hex(),
            _hex(task.completion_s),
            task.cpu_consumed_s.hex(),
            [(start.hex(), end.hex()) for start, end in task.run_segments],
            [(start.hex(), length.hex()) for start, length in task.throttle_segments],
        )
        for name, task in result.tasks.items()
    ]
    stats = [(key, float.hex(value)) for key, value in result.bandwidth_stats.items()]
    return tasks, stats, result.end_time_s.hex()


def _attached(engine_type, config, specs):
    kernel = SimulationKernel()
    published = PublishedRate()
    engine = engine_type(config, _tasks(specs)).attach(kernel, rate=published)
    events = kernel.run(until=config.horizon_s, max_events=MAX_EVENTS)
    result = engine.finalize()
    history = [(time.hex(), rate.hex()) for time, rate in published.history]
    return _bits(result), events, kernel.now.hex(), history


@settings(max_examples=150, deadline=None)
@given(scenario=_scenarios())
def test_standalone_run_matches_parent_tick(scenario):
    config, specs = scenario
    new = SchedulerSim(config, _tasks(specs)).run()
    old = ParentSchedulerSim(config, _tasks(specs)).run()
    assert _bits(new) == _bits(old)


@settings(max_examples=150, deadline=None)
@given(scenario=_scenarios())
def test_attached_engine_with_feedback_matches_parent_tick(scenario):
    config, specs = scenario
    new = _attached(SchedulerSim, config, specs)
    old = _attached(ParentSchedulerSim, config, specs)
    assert new[1] < MAX_EVENTS
    assert new == old
