"""Discrete-event simulation of CPU scheduling under cgroup bandwidth control.

The engine advances time from event to event.  Events are:

- task arrivals and IO wake-ups,
- compute-phase completions,
- scheduler ticks (``CONFIG_HZ``): runtime accounting, throttling checks and
  preemption decisions happen here, which is what makes accounting *lagged*
  and allows quota overrun,
- period-boundary hrtimer callbacks: the cgroup's global runtime pool is
  refilled and throttled CPUs whose debt can be covered are unthrottled,
- EEVDF slice expiries (an extra accounting point that slightly reduces
  overrun, matching the paper's CFS-vs-EEVDF comparison).

The simulation is deterministic: randomness (e.g. the phase offset between a
function invocation and the tick/period grids) is injected by callers through
``tick_phase_s`` / ``period_phase_s`` / task arrival times.

:class:`SchedulerSim` reads its frozen :class:`SchedulerConfig` once, so a tick
re-derives nothing, and the tick path builds no throwaway lists.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sched.cgroup import EXHAUSTED_RUNTIME_S, BandwidthConfig, BandwidthController, CpuLocalPool
from repro.sched.policies import PolicyParameters, max_burst_s, pick_key
from repro.sched.task import PhaseKind, SimTask, TaskState
from repro.sim.feedback import PublishedRate
from repro.sim.kernel import SimulationKernel

__all__ = ["QuotaEnforcement", "SchedulerConfig", "SchedulerSim", "SimulationResult", "TaskResult"]

#: Seconds within which two event times count as equal and remaining work,
#: demand or elapsed time counts as none: float residue of time arithmetic.
#: Past 2**14 s half the clock's ulp exceeds it: a phase ending at the clock is done.
_TIME_EPS_S = 1e-12
#: Fraction of a grid interval by which the clock may fall short of a grid
#: point and still count as on it, so the next grid point is the one after.
#: Below the ulp past ~2**15 s (4 ms ticks): a point not after the clock moves on.
_GRID_SNAP = 1e-9
#: Fraction of a grid interval within which the clock counts as on the grid.
#: It sets the safe horizon (``_SAFE_HORIZON_S``): grid-aligned runs of the Table-3
#: presets keep their t = 0 period and throttle counts to 2**21 - 8 s (measured).
_ON_GRID_TOL = 1e-7
#: Seconds by which a running burst may fall short of the EEVDF slice and
#: still count as expired.
_SLICE_EXPIRY_SLACK_S = 1e-9
#: Largest ``horizon_s`` a config accepts.  Past 2**21 s the clock's rounding
#: exceeds ``_ON_GRID_TOL`` and ticks are skipped without any error
#: (ibm_code_engine from 2**21 s, aws_lambda from 2**22 s).
_SAFE_HORIZON_S = 2.0**21


class QuotaEnforcement(str, enum.Enum):
    """How CPU bandwidth quota exhaustion is detected.

    ``TICK`` is the stock kernel behaviour the paper measures: runtime is only
    accounted at scheduler ticks and context switches, so short tasks overrun
    their quota (overallocation).  ``EVENT`` models the paper's §4.3 proposal:
    a one-shot timer fires exactly when the running task exhausts its remaining
    runtime, throttling it immediately and eliminating the overrun (at the cost
    of extra timer programming, which is not modelled).
    """

    TICK = "tick"
    EVENT = "event"


@dataclass(frozen=True)
class SchedulerConfig:
    """Static configuration of a scheduling simulation."""

    bandwidth: BandwidthConfig
    tick_hz: int = 250
    num_cpus: int = 1
    policy: PolicyParameters = field(default_factory=PolicyParameters)
    #: Offset of the scheduler-tick grid relative to time zero.
    tick_phase_s: float = 0.0
    #: Offset of the bandwidth-period grid relative to time zero.
    period_phase_s: float = 0.0
    #: Hard simulation horizon; the run stops here even if tasks are unfinished.
    horizon_s: float = 60.0
    #: Safety valve against runaway event loops.
    max_events: int = 5_000_000
    #: Quota-exhaustion detection: lagged tick accounting (kernel default) or
    #: the event-driven enforcement the paper proposes in §4.3.
    quota_enforcement: QuotaEnforcement = QuotaEnforcement.TICK

    def __post_init__(self) -> None:
        if self.tick_hz <= 0:
            raise ValueError("tick_hz must be positive")
        if self.num_cpus <= 0:
            raise ValueError("num_cpus must be positive")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.horizon_s > _SAFE_HORIZON_S:
            raise ValueError(
                f"horizon_s {self.horizon_s} exceeds the scheduler's safe horizon of "
                f"{_SAFE_HORIZON_S:.0f} s (2**21): past it ticks are missed"
            )

    @property
    def tick_interval_s(self) -> float:
        return 1.0 / self.tick_hz


@dataclass
class TaskResult:
    """Per-task outcome of a simulation run."""

    name: str
    arrival_s: float
    completion_s: Optional[float]
    cpu_consumed_s: float
    run_segments: List[Tuple[float, float]]
    throttle_segments: List[Tuple[float, float]]

    @property
    def finished(self) -> bool:
        return self.completion_s is not None

    @property
    def duration_s(self) -> float:
        """Wall-clock duration from arrival to completion (NaN when unfinished)."""
        if self.completion_s is None:
            return float("nan")
        return self.completion_s - self.arrival_s


@dataclass
class SimulationResult:
    """Outcome of one simulation: per-task results plus cgroup bandwidth stats."""

    tasks: Dict[str, TaskResult]
    bandwidth_stats: Dict[str, float]
    end_time_s: float

    def task(self, name: str) -> TaskResult:
        return self.tasks[name]

    @property
    def single(self) -> TaskResult:
        """The only task's result (convenience for single-task experiments)."""
        if len(self.tasks) != 1:
            raise ValueError(f"expected exactly one task, have {len(self.tasks)}")
        return next(iter(self.tasks.values()))


class _CpuState:
    """Mutable per-CPU simulation state."""

    __slots__ = ("cpu_id", "pool", "running", "segment_start", "burst_start", "unaccounted")

    def __init__(self, cpu_id: int, pool: CpuLocalPool) -> None:
        self.cpu_id = cpu_id
        self.pool = pool
        self.running: Optional[SimTask] = None
        self.segment_start: float = 0.0
        self.burst_start: float = 0.0
        self.unaccounted: float = 0.0


class SchedulerSim:
    """Simulates one cgroup's tasks under CPU bandwidth control.

    ``config`` is read once: ``__init__`` folds the grids, switches, burst
    limit, pick key and horizon it fixes, so a tick reads only changing state.
    """

    def __init__(self, config: SchedulerConfig, tasks: Sequence[SimTask]) -> None:
        if not tasks:
            raise ValueError("at least one task is required")
        self._task_index: Dict[str, SimTask] = {t.name: t for t in tasks}
        if len(self._task_index) != len(tasks):
            raise ValueError("task names must be unique")
        self.config = config
        self.tasks: List[SimTask] = list(tasks)
        self.controller = BandwidthController(config.bandwidth, num_cpus=config.num_cpus)
        self._tick_s = config.tick_interval_s
        self._tick_phase_s = config.tick_phase_s
        self._period_s = config.bandwidth.period_s
        self._period_phase_s = config.period_phase_s
        self._bandwidth_on = config.bandwidth.enabled
        self._event_enforced = self._bandwidth_on and config.quota_enforcement is QuotaEnforcement.EVENT
        self._burst_limit_s = max_burst_s(config.policy)
        self._pick_key = pick_key(config.policy)
        self._horizon_s = config.horizon_s
        self._cpus = [_CpuState(i, self.controller.local[i]) for i in range(config.num_cpus)]
        self._now = 0.0
        self._kernel: Optional[SimulationKernel] = None
        self._attached = False
        self._finalized = False
        # Tasks waiting to arrive, sorted by arrival time (popped from the front).
        self._pending = sorted(self.tasks, key=lambda t: t.arrival_s)
        # Per-CPU runnable queues (task affinity is fixed at arrival).
        self._runqueues: Dict[int, List[SimTask]] = {i: [] for i in range(config.num_cpus)}
        self._affinity: Dict[str, int] = {}
        # Blocked tasks and their wake times.
        self._wakeups: Dict[str, float] = {}
        # Tasks currently waiting because their CPU is throttled, with the time
        # they stopped running (for throttle segment bookkeeping).
        self._throttle_wait_since: Dict[str, float] = {}
        # Execution-feedback publication (attach(..., rate=...)): the
        # engine accumulates delivered vs demanded CPU time per bandwidth
        # period and publishes the ratio as a piecewise-constant service-rate
        # factor the platform layer stretches busy times by.
        self._fb_rate: Optional[PublishedRate] = None
        self._fb_delivered_s = 0.0
        self._fb_demanded_s = 0.0
        self._fb_quiesced = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the simulation to completion (all tasks done) or to the horizon.

        The engine attaches itself (:meth:`attach`) to a private
        :class:`repro.sim.kernel.SimulationKernel`, lets the kernel drive it
        to the horizon, and returns :meth:`finalize`.  An engine attached to
        a shared kernel cannot also run on its own.
        """
        kernel = SimulationKernel(start_s=self._now)
        self.attach(kernel)
        max_events = self.config.max_events
        executed = kernel.run(until=self.config.horizon_s, max_events=max_events,
                              stop=self._all_done)
        if executed >= max_events and not self._all_done():  # pragma: no cover - safety valve
            raise RuntimeError("simulation exceeded max_events; possible event-loop bug")
        return self.finalize()

    def attach(
        self,
        kernel: SimulationKernel,
        rate: Optional[PublishedRate] = None,
    ) -> "SchedulerSim":
        """Register this engine as a process on a *shared* kernel.

        This is how scheduler decisions (cgroup throttling, tick accounting,
        task placement) co-simulate with the platform/fleet/billing layers in
        one event loop: the shared kernel owns the clock, keeps the engine's
        next tick/refill/arrival/completion on its heap (re-armed after every
        :meth:`handle`), and interleaves it with every other simulator's
        events.  Past its own ``horizon_s`` (or once every task is done) the
        engine reports nothing pending, so it never keeps the cluster loop
        alive.  After the kernel run, call :meth:`finalize` to close open run
        segments and collect results.

        With a ``rate`` (a :class:`~repro.sim.feedback.PublishedRate` the
        platform simulators hold too), the engine closes the state loop the
        shared clock alone cannot: at every bandwidth-period boundary it
        publishes the period's *effective-bandwidth factor* -- CPU time
        actually delivered over CPU time the runnable tasks demanded (time
        running plus time parked throttled) -- into it.  Without one it
        publishes nothing.  The platform layer reads the factor at
        event-schedule time and stretches request busy times by it, so cgroup
        throttling becomes visible in end-to-end latency and in the
        (stretched) durations the cost meter bills.  Once the engine goes
        quiet (horizon passed or all tasks done) it publishes ``1.0`` so it
        stops slowing anyone down.
        """
        if self._attached or self._kernel is not None:
            raise RuntimeError("engine already attached to a kernel (or already run)")
        self._attached = True
        self._kernel = kernel
        self._fb_rate = rate
        kernel.add_process(self)
        return self

    def register_metrics(self, registry) -> "SchedulerSim":
        """Expose live scheduling state as observability gauges (pure reads).

        ``sched_throttled_tasks`` is the set currently parked by bandwidth
        control, ``sched_runnable_tasks`` the run-queue population, and
        ``sched_service_rate`` the most recently published feedback factor
        (1.0 without a rate to publish into) -- the telemetry sampler turns these
        into the throttle-pressure series the summary scalars hide.
        """
        registry.gauge(
            "sched_throttled_tasks", fn=lambda: float(len(self._throttle_wait_since))
        )
        registry.gauge(
            "sched_runnable_tasks",
            fn=lambda: float(sum(len(queue) for queue in self._runqueues.values())),
        )
        registry.gauge(
            "sched_service_rate",
            fn=lambda: (
                self._fb_rate.rate if self._fb_rate is not None else 1.0
            ),
        )
        return self

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
                self._advance_running(max(self._now, self._horizon_s))
            self._close_open_segments()
            self._quiesce_feedback(self._now)
        return self._collect()

    # -- repro.sim.kernel.SimProcess protocol --------------------------

    def next_event_time(self, now: float) -> Optional[float]:
        """When this engine next needs the clock (asked after every :meth:`handle`).

        A running minimum over arrival, wake-up, tick, refill, phase end,
        burst and budget times.  Returns ``None`` once the next event would
        fall strictly beyond the configured horizon -- exactly where the
        standalone :meth:`run` loop stops -- so a shared kernel never drives
        the engine past it.
        """
        if self._finalized:
            return None
        best = self._pending[0].arrival_s if self._pending else None
        if self._wakeups:
            wake = min(self._wakeups.values())
            if best is None or wake < best:
                best = wake
        running = throttled = False
        for cpu in self._cpus:
            if cpu.running is not None:
                running = True
            elif cpu.pool.throttled:
                throttled = True
        if running:
            tick = self._next_grid_point(self._tick_phase_s, self._tick_s)
            if best is None or tick < best:
                best = tick
        if self._bandwidth_on and (running or throttled):
            refill = self._next_grid_point(self._period_phase_s, self._period_s)
            if best is None or refill < best:
                best = refill
        if running:
            burst_limit = self._burst_limit_s
            for cpu in self._cpus:
                task = cpu.running
                if task is None:
                    continue
                end = self._now + task.phase_remaining_s
                if best is None or end < best:
                    best = end
                if burst_limit is not None:
                    expiry = cpu.burst_start + burst_limit
                    if expiry < best:
                        best = expiry
                if self._event_enforced:
                    budget = self._remaining_budget(cpu)
                    if budget is not None:
                        exhausted = self._now + max(budget, 0.0)
                        if exhausted < best:
                            best = exhausted
        if best is None or best > self._horizon_s:
            # Quiet for good: stop throttling the platform layer too.
            self._quiesce_feedback(now)
            return None
        return best

    def handle(self, now: float) -> None:
        """Advance running tasks to ``now`` and process that instant's events."""
        self._advance_running(now)
        self._handle_events()
        self._dispatch()

    # ------------------------------------------------------------------
    # Event-time computation
    # ------------------------------------------------------------------

    def _next_grid_point(self, phase: float, interval: float) -> float:
        """The first grid point strictly after the current time (see ``_GRID_SNAP``)."""
        k = math.floor((self._now - phase) / interval + _GRID_SNAP) + 1
        point = phase + k * interval
        if point <= self._now:
            point = phase + (k + 1) * interval
        return point

    def _remaining_budget(self, cpu: _CpuState) -> Optional[float]:
        """Runtime left before this CPU's cgroup budget is exhausted (event enforcement)."""
        budget = cpu.pool.runtime_remaining_s + self.controller.global_runtime_s - cpu.unaccounted
        if budget == float("inf"):
            return None
        return budget

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

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
        if self._wakeups:
            for name, wake_time in list(self._wakeups.items()):
                if wake_time <= now + _TIME_EPS_S:
                    del self._wakeups[name]
                    task = self._task_index[name]
                    task.advance_phase()
                    self._after_phase_transition(task)

        # 3. Compute-phase completions (account consumed runtime at the switch).
        # Far from t = 0 a residual above _TIME_EPS_S can still end at `now`
        # itself once added to the clock; such a phase is finished too.
        for cpu in self._cpus:
            task = cpu.running
            if task is None or (task.phase_remaining_s > _TIME_EPS_S
                                and now + task.phase_remaining_s != now):
                continue
            self._account_cpu(cpu)
            self._stop_running(cpu, record_throttle_wait=False)
            task.advance_phase()
            self._after_phase_transition(task)

        # 4. Period refill (before the tick so a coinciding tick sees fresh quota).
        if self._bandwidth_on:
            offset = (now - self._period_phase_s) / self._period_s
            if abs(offset - round(offset)) < _ON_GRID_TOL:
                self._publish_feedback(now)
                for cpu_id in self.controller.refill(now):
                    for task in self._runqueues[cpu_id]:
                        if task.name in self._throttle_wait_since:
                            started = self._throttle_wait_since.pop(task.name)
                            task.throttle_segments.append((started, now - started))
                            task.state = TaskState.RUNNABLE

        # 5. Scheduler tick: accounting, throttling, and preemption points.
        offset = (now - self._tick_phase_s) / self._tick_s
        if abs(offset - round(offset)) < _ON_GRID_TOL:
            for cpu in self._cpus:
                if cpu.running is not None:
                    self._account_and_maybe_throttle(cpu)
            self._preempt_if_needed()

        # 5b. Event-driven quota enforcement (§4.3 proposal): throttle a running
        # task the instant its remaining budget hits zero rather than waiting
        # for the next tick.
        if self._event_enforced:
            for cpu in self._cpus:
                if cpu.running is None:
                    continue
                budget = self._remaining_budget(cpu)
                if budget is not None and budget <= EXHAUSTED_RUNTIME_S:
                    self._account_cpu(cpu)
                    if self.controller.throttle_if_exhausted(cpu.cpu_id, now) and cpu.running is not None:
                        task = cpu.running
                        self._stop_running(cpu, record_throttle_wait=True)
                        task.state = TaskState.THROTTLED

        # 6. EEVDF slice expiry: an extra accounting point for the running task.
        burst_limit = self._burst_limit_s
        if burst_limit is not None:
            for cpu in self._cpus:
                if cpu.running is None:
                    continue
                if now - cpu.burst_start >= burst_limit - _SLICE_EXPIRY_SLACK_S:
                    self._account_and_maybe_throttle(cpu)
                    if cpu.running is not None:
                        cpu.burst_start = now
            self._preempt_if_needed()

    def _after_phase_transition(self, task: SimTask) -> None:
        """Route a task to the right state after finishing a phase."""
        phase = task.current_phase
        if phase is None:
            task.state = TaskState.DONE
            task.completion_time_s = self._now
            cpu_id = self._affinity.get(task.name)
            if cpu_id is not None and task in self._runqueues[cpu_id]:
                self._runqueues[cpu_id].remove(task)
            return
        if phase.kind is PhaseKind.IO:
            task.state = TaskState.BLOCKED
            self._wakeups[task.name] = self._now + phase.duration_s
            cpu_id = self._affinity[task.name]
            if task in self._runqueues[cpu_id]:
                self._runqueues[cpu_id].remove(task)
            return
        # Compute phase: back on the runqueue.
        task.state = TaskState.RUNNABLE
        cpu_id = self._affinity[task.name]
        if task not in self._runqueues[cpu_id]:
            self._runqueues[cpu_id].append(task)

    # ------------------------------------------------------------------
    # Execution-feedback publication
    # ------------------------------------------------------------------

    def _publish_feedback(self, now: float) -> None:
        """Close the current accounting window and publish its bandwidth factor.

        Called at each period boundary: the factor is delivered CPU time over
        demanded CPU time since the previous boundary.  An idle window (no
        demand at all) publishes ``1.0`` -- nothing was slowed down.
        """
        if self._fb_rate is None:
            return
        if self._fb_demanded_s > _TIME_EPS_S:
            factor = min(self._fb_delivered_s / self._fb_demanded_s, 1.0)
        else:
            factor = 1.0
        self._fb_rate.publish(now, factor)
        self._fb_delivered_s = 0.0
        self._fb_demanded_s = 0.0

    def _quiesce_feedback(self, now: float) -> None:
        """Publish full speed once the engine has nothing left to simulate."""
        if self._fb_rate is not None and not self._fb_quiesced:
            self._fb_quiesced = True
            self._fb_rate.publish(now, 1.0)

    # ------------------------------------------------------------------
    # Accounting, throttling, and dispatch
    # ------------------------------------------------------------------

    def _account_cpu(self, cpu: _CpuState) -> bool:
        """Charge unaccounted runtime; returns True when the CPU got throttled."""
        if cpu.unaccounted <= 0:
            return cpu.pool.throttled
        throttled = self.controller.account(cpu.cpu_id, cpu.unaccounted, self._now)
        cpu.unaccounted = 0.0
        return throttled

    def _account_and_maybe_throttle(self, cpu: _CpuState) -> None:
        throttled = self._account_cpu(cpu)
        if throttled and cpu.running is not None:
            task = cpu.running
            self._stop_running(cpu, record_throttle_wait=True)
            task.state = TaskState.THROTTLED

    def _stop_running(self, cpu: _CpuState, record_throttle_wait: bool) -> None:
        task = cpu.running
        if task is None:
            return
        if self._now > cpu.segment_start + _TIME_EPS_S:
            task.run_segments.append((cpu.segment_start, self._now))
        if record_throttle_wait:
            self._throttle_wait_since[task.name] = self._now
        cpu.running = None
        cpu.unaccounted = 0.0

    def _best_runnable(self, cpu_id: int, current: Optional[SimTask]):
        """The runnable task other than ``current`` with the smallest pick key, and the key."""
        key = self._pick_key
        best = best_key = None
        for task in self._runqueues[cpu_id]:
            if task.state is TaskState.RUNNABLE and task is not current:
                task_key = key(task)
                if best is None or task_key < best_key:
                    best, best_key = task, task_key
        return best, best_key

    def _preempt_if_needed(self) -> None:
        """At a tick, let a waiting task with a smaller scheduling key take the CPU."""
        for cpu in self._cpus:
            current = cpu.running
            if current is None or cpu.pool.throttled:
                continue
            best, best_key = self._best_runnable(cpu.cpu_id, current)
            if best is None or self._pick_key(current) <= best_key:
                continue
            self._account_cpu(cpu)
            self._stop_running(cpu, record_throttle_wait=False)
            current.state = TaskState.RUNNABLE

    def _dispatch(self) -> None:
        """Put runnable tasks on idle, unthrottled CPUs."""
        for cpu in self._cpus:
            if cpu.running is not None or cpu.pool.throttled:
                continue
            chosen, _ = self._best_runnable(cpu.cpu_id, None)
            if chosen is None:
                continue
            chosen.state = TaskState.RUNNING
            cpu.running = chosen
            cpu.segment_start = self._now
            cpu.burst_start = self._now
            cpu.unaccounted = 0.0
            if chosen.name in self._throttle_wait_since:
                started = self._throttle_wait_since.pop(chosen.name)
                chosen.throttle_segments.append((started, self._now - started))

    # ------------------------------------------------------------------
    # Helpers and result collection
    # ------------------------------------------------------------------

    def _all_done(self) -> bool:
        return all(t.is_done for t in self.tasks)

    def _least_loaded_cpu(self) -> int:
        return min(self._runqueues, key=lambda cpu_id: len(self._runqueues[cpu_id]))

    def _close_open_segments(self) -> None:
        for cpu in self._cpus:
            if cpu.running is not None and self._now > cpu.segment_start + _TIME_EPS_S:
                cpu.running.run_segments.append((cpu.segment_start, self._now))
                cpu.running = None
        for name, started in list(self._throttle_wait_since.items()):
            task = self._task_index[name]
            if self._now > started + _TIME_EPS_S:
                task.throttle_segments.append((started, self._now - started))
            del self._throttle_wait_since[name]

    def _collect(self) -> SimulationResult:
        results = {
            task.name: TaskResult(
                name=task.name,
                arrival_s=task.arrival_s,
                completion_s=task.completion_time_s,
                cpu_consumed_s=task.cpu_consumed_s,
                run_segments=list(task.run_segments),
                throttle_segments=list(task.throttle_segments),
            )
            for task in self.tasks
        }
        return SimulationResult(
            tasks=results,
            bandwidth_stats=self.controller.stats(),
            end_time_s=self._now,
        )
