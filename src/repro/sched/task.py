"""Tasks scheduled by the bandwidth-control simulator.

A task is a sequence of phases.  A *compute* phase needs a given amount of CPU
time; an *io* phase blocks (consumes no CPU) for a given wall-clock duration.
CPU-bound workloads have a single compute phase; I/O-bound workloads alternate
compute and io phases; the paper's intermittent-execution exploit decomposes a
long compute phase into many short ones separated by invocations.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.numeric import fold

__all__ = ["TaskState", "TaskPhase", "SimTask"]

_task_counter = itertools.count()


class TaskState(str, enum.Enum):
    """Lifecycle states of a simulated task."""

    WAITING = "waiting"  # not yet arrived
    RUNNABLE = "runnable"  # ready to run, not currently on a CPU
    RUNNING = "running"  # currently executing on a CPU
    BLOCKED = "blocked"  # in an io phase (off the runqueue)
    THROTTLED = "throttled"  # runnable but its cgroup is throttled
    DONE = "done"  # all phases finished


class PhaseKind(str, enum.Enum):
    COMPUTE = "compute"
    IO = "io"


@dataclass
class TaskPhase:
    """One phase of a task: either CPU work or an IO wait."""

    kind: PhaseKind
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError("phase duration must be >= 0")

    @classmethod
    def compute(cls, cpu_seconds: float) -> "TaskPhase":
        return cls(kind=PhaseKind.COMPUTE, duration_s=cpu_seconds)

    @classmethod
    def io(cls, wall_seconds: float) -> "TaskPhase":
        return cls(kind=PhaseKind.IO, duration_s=wall_seconds)


@dataclass
class SimTask:
    """A schedulable task.

    Attributes:
        phases: the task's phase sequence.
        arrival_s: when the task becomes runnable.
        name: identifier used in results.
        weight: scheduling weight (nice-equivalent); all equal by default.
    """

    phases: Sequence[TaskPhase]
    arrival_s: float = 0.0
    name: str = ""
    weight: float = 1.0

    # Mutable simulation state (managed by the engine).
    state: TaskState = field(default=TaskState.WAITING, init=False)
    phase_index: int = field(default=0, init=False)
    phase_remaining_s: float = field(default=0.0, init=False)
    vruntime: float = field(default=0.0, init=False)
    virtual_deadline: float = field(default=0.0, init=False)
    cpu_consumed_s: float = field(default=0.0, init=False)
    completion_time_s: Optional[float] = field(default=None, init=False)
    #: Wall-clock intervals during which the task was actually running on a CPU.
    run_segments: List[Tuple[float, float]] = field(default_factory=list, init=False)
    #: (time, duration) pairs for every throttle the task experienced.
    throttle_segments: List[Tuple[float, float]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a task needs at least one phase")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be >= 0")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not self.name:
            self.name = f"task-{next(_task_counter)}"
        self.phase_remaining_s = self.phases[0].duration_s

    # ------------------------------------------------------------------
    # Constructors for common workload shapes
    # ------------------------------------------------------------------

    @classmethod
    def cpu_bound(cls, cpu_seconds: float, arrival_s: float = 0.0, name: str = "") -> "SimTask":
        """A purely compute-bound task (e.g. PyAES)."""
        return cls(phases=[TaskPhase.compute(cpu_seconds)], arrival_s=arrival_s, name=name)

    @classmethod
    def io_bound(
        cls,
        compute_burst_s: float,
        io_wait_s: float,
        num_bursts: int,
        arrival_s: float = 0.0,
        name: str = "",
    ) -> "SimTask":
        """A task alternating short compute bursts with IO waits."""
        if num_bursts <= 0:
            raise ValueError("num_bursts must be positive")
        phases: List[TaskPhase] = []
        for _ in range(num_bursts):
            phases.append(TaskPhase.compute(compute_burst_s))
            phases.append(TaskPhase.io(io_wait_s))
        return cls(phases=phases, arrival_s=arrival_s, name=name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def current_phase(self) -> Optional[TaskPhase]:
        if self.phase_index >= len(self.phases):
            return None
        return self.phases[self.phase_index]

    @property
    def total_cpu_demand_s(self) -> float:
        """Total CPU time the task needs across all compute phases."""
        return fold(p.duration_s for p in self.phases if p.kind is PhaseKind.COMPUTE)

    @property
    def is_done(self) -> bool:
        return self.state is TaskState.DONE

    def advance_phase(self) -> None:
        """Move to the next phase; the engine calls this when a phase finishes."""
        self.phase_index += 1
        if self.phase_index < len(self.phases):
            self.phase_remaining_s = self.phases[self.phase_index].duration_s
        else:
            self.phase_remaining_s = 0.0
