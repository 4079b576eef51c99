"""Sandbox lifecycle: initialisation, execution, keep-alive, shutdown.

A sandbox is the unit the platform allocates resources to (a container, pod or
microVM).  Its lifecycle matches the paper's description of the serverless
runtime sandbox: initialisation (cold start), request execution, keep-alive,
and shutdown.  Under the multi-concurrency model several requests may be
admitted into one sandbox at the same time; of those, up to ``runtime_workers``
execute in parallel (sharing the sandbox's vCPUs under processor sharing, see
:mod:`repro.platform.concurrency`) while the rest wait in the sandbox's local
queue.  The wait is visible in end-to-end latency but not in the
provider-reported execution duration, matching how platforms report the metric
the paper plots.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.platform.concurrency import ContentionModel
from repro.platform.metrics import Attempt

__all__ = ["SandboxState", "ActiveRequest", "Sandbox"]

#: One ActiveRequest is allocated per admitted request and one Sandbox per
#: cold start; ``slots=True`` (Python 3.10+) keeps these hot objects small
#: and their attribute access fast.  Older interpreters fall back to
#: dict-backed dataclasses with identical behaviour.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Remaining CPU or IO seconds at or below this count as done: it absorbs
#: the rounding left over when processor-sharing progress is subtracted.
_WORK_DONE_S = 1e-12
#: How far :meth:`Sandbox.advance` may be asked to step back in time before
#: it raises; a smaller step is float noise in event times and does nothing.
_CLOCK_SKEW_S = 1e-9


class SandboxState(str, enum.Enum):
    """Lifecycle states of a sandbox."""

    INITIALIZING = "initializing"
    BUSY = "busy"
    IDLE = "idle"  # keep-alive phase
    TERMINATED = "terminated"


@dataclass(**_SLOTS)
class ActiveRequest:
    """A request admitted into a sandbox (executing or waiting for a runtime worker)."""

    #: The client attempt this execution serves (id, arrival, origin, retry state).
    attempt: Attempt
    remaining_cpu_s: float
    io_remaining_s: float
    overhead_s: float
    cold_start: bool
    init_wait_s: float = 0.0
    #: When a runtime worker picked the request up; ``None`` while it waits
    #: in :attr:`Sandbox.waiting`.
    exec_start_s: Optional[float] = None


@dataclass(**_SLOTS)
class Sandbox:
    """One sandbox instance of a function."""

    function_name: str
    alloc_vcpus: float
    alloc_memory_gb: float
    contention: ContentionModel
    created_s: float
    init_duration_s: float
    runtime_workers: int = 1_000_000
    name: str = field(default="")

    state: SandboxState = field(default=SandboxState.INITIALIZING, init=False)
    #: Execution-rate factor in (0, 1] applied on top of the contention model.
    #: The platform simulator re-reads it from the feedback channel at every
    #: admit/completion event; between events it is piecewise-constant, so
    #: scheduled completion projections stay consistent with :meth:`advance`.
    #: ``1.0`` (the default, and the only value with feedback off) leaves
    #: progress float-exactly unchanged.
    rate_factor: float = field(default=1.0, init=False)
    ready_s: float = field(default=0.0, init=False)
    last_busy_s: float = field(default=0.0, init=False)
    keep_alive_deadline_s: float = field(default=float("inf"), init=False)
    #: Requests currently executing (at most ``runtime_workers``).
    executing: Dict[str, ActiveRequest] = field(default_factory=dict, init=False)
    #: Admitted requests waiting for a runtime worker, in FIFO order.
    waiting: List[ActiveRequest] = field(default_factory=list, init=False)
    #: Total admitted requests (executing plus waiting) -- the platform's
    #: view.  Maintained by :meth:`admit`/:meth:`remove` rather than derived,
    #: because routing and the autoscaler read it on every decision.
    concurrency: int = field(default=0, init=False)
    _last_progress_update_s: float = field(default=0.0, init=False)
    #: Memo of the contention model's per-request rate for the last executing
    #: count: :meth:`advance` and :meth:`next_completion_time` both need it at
    #: every event, and the count rarely changes between the two.
    _rate_count: int = field(default=0, init=False)
    _contended_rate: float = field(default=0.0, init=False)
    #: The platform simulator's run-time bookkeeping for this sandbox: the
    #: version a completion check must carry to be live, the fire time of
    #: the one pending keep-alive expiry check (``None``: none pending), and
    #: the attempts waiting for initialisation to finish.
    completion_version: int = field(default=0, init=False)
    keepalive_check_s: Optional[float] = field(default=None, init=False)
    cold_waiters: List[Attempt] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.runtime_workers < 1:
            raise ValueError("runtime_workers must be >= 1")
        self.ready_s = self.created_s + self.init_duration_s
        self._last_progress_update_s = self.ready_s
        self.last_busy_s = self.ready_s

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def mark_ready(self, now_s: float) -> None:
        """Initialisation finished; the sandbox can accept requests."""
        if self.state is not SandboxState.INITIALIZING:
            raise RuntimeError(f"sandbox {self.name} is not initialising")
        self.state = SandboxState.IDLE
        self.ready_s = now_s
        self._last_progress_update_s = now_s
        self.last_busy_s = now_s

    def terminate(self, now_s: float) -> None:
        if self.executing or self.waiting:
            raise RuntimeError(f"cannot terminate sandbox {self.name} with active requests")
        self.state = SandboxState.TERMINATED
        self.last_busy_s = now_s

    # ------------------------------------------------------------------
    # Processor-sharing execution
    # ------------------------------------------------------------------

    def advance(self, now_s: float) -> List[ActiveRequest]:
        """Advance progress to ``now_s`` under processor sharing; return the done requests.

        Done means both phases finished; the list is in admission order.  ``min``
        and ``max`` are spelled as the comparisons that return the same operand.
        """
        last = self._last_progress_update_s
        if now_s < last - _CLOCK_SKEW_S:
            raise ValueError("time went backwards in sandbox advance")
        elapsed = now_s - last
        if 0.0 > elapsed:
            elapsed = 0.0
        self._last_progress_update_s = now_s
        executing = self.executing
        if elapsed <= 0 or not executing:
            return [r for r in executing.values()
                    if r.remaining_cpu_s <= _WORK_DONE_S and r.io_remaining_s <= _WORK_DONE_S]
        n = len(executing)
        if n != self._rate_count:
            self._rate_count = n
            self._contended_rate = self.contention.per_request_rate(n, self.alloc_vcpus)
        rate = self._contended_rate * self.rate_factor
        step = elapsed * rate
        done = []
        for request in executing.values():
            cpu = request.remaining_cpu_s
            if cpu > 0:
                consumed = cpu if not (step < cpu) else step
                request.remaining_cpu_s = cpu = cpu - consumed
                if cpu <= _WORK_DONE_S:
                    # IO only starts after the CPU phase finishes; leftover
                    # elapsed time beyond the CPU completion counts toward IO.
                    io = request.io_remaining_s
                    leftover = elapsed - (consumed / rate if rate > 0 else 0.0)
                    if leftover > 0:
                        io -= leftover
                        request.io_remaining_s = io = 0.0 if 0.0 > io else io
                    if io <= _WORK_DONE_S:
                        done.append(request)
            else:
                io = request.io_remaining_s - elapsed
                request.io_remaining_s = io = 0.0 if 0.0 > io else io
                if io <= _WORK_DONE_S and cpu <= _WORK_DONE_S:
                    done.append(request)
        return done

    def admit(self, request: ActiveRequest, now_s: float) -> None:
        """Admit a request: it starts executing if a runtime worker is free, else waits."""
        self.advance(now_s)
        if len(self.executing) < self.runtime_workers:
            request.exec_start_s = now_s
            self.executing[request.attempt.request_id] = request
        else:
            self.waiting.append(request)
        self.concurrency += 1
        self.state = SandboxState.BUSY
        self.keep_alive_deadline_s = float("inf")

    def remove(self, request_id: str, now_s: float) -> ActiveRequest:
        """Remove a finished request and promote the oldest waiting request, if any."""
        request = self.executing.pop(request_id)
        self.concurrency -= 1
        if self.waiting and len(self.executing) < self.runtime_workers:
            promoted = self.waiting.pop(0)
            promoted.exec_start_s = now_s
            self.executing[promoted.attempt.request_id] = promoted
        if not self.executing and not self.waiting:
            self.state = SandboxState.IDLE
            self.last_busy_s = now_s
        return request

    def next_completion_time(self, now_s: float) -> Optional[float]:
        """Earliest time at which some executing request could finish, given current sharing."""
        executing = self.executing
        if not executing:
            return None
        n = len(executing)
        if n != self._rate_count:
            self._rate_count = n
            self._contended_rate = self.contention.per_request_rate(n, self.alloc_vcpus)
        rate = self._contended_rate * self.rate_factor
        best: Optional[float] = None
        for request in executing.values():
            cpu = request.remaining_cpu_s
            if cpu > _WORK_DONE_S:
                if rate <= 0:
                    continue
                t = now_s + cpu / rate + request.io_remaining_s
            else:
                t = now_s + request.io_remaining_s
            if best is None or t < best:
                best = t
        return best

    def stalled_requests(self, now_s: float) -> List[ActiveRequest]:
        """Executing requests whose :meth:`next_completion_time` projection rounds to ``now_s``."""
        rate = self.contention.per_request_rate(len(self.executing), self.alloc_vcpus) * self.rate_factor
        return [
            r for r in self.executing.values()
            if (now_s + r.io_remaining_s <= now_s if r.remaining_cpu_s <= _WORK_DONE_S else
                rate > 0 and now_s + r.remaining_cpu_s / rate + r.io_remaining_s <= now_s)
        ]
