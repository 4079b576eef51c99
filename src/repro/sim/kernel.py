"""The discrete-event simulation kernel shared by every simulator in the repo.

The kernel owns the clock and decides what happens next.  Everything it
dispatches lives on one binary heap:

- **Scheduled events**: pushed with an absolute firing time.  A
  monotonically increasing sequence number breaks time ties, so two events
  scheduled for the same instant always fire in scheduling order -- this is
  what makes runs deterministic regardless of heap internals.
- **Processes** (:class:`SimProcess`): co-simulated components that compute
  their own next event time -- the CPU-bandwidth scheduler engine,
  autoscaler ticks, fleet samplers, telemetry.  A process's next event time
  changes only when its own ``handle`` runs, so each process lives on the
  heap as one tick of kind ``process:<TypeName>`` that is re-armed after
  every ``handle``.  A tick's sequence number is :data:`_TICK_SEQ` plus the
  process's registration rank: heap events win exact-time ties, then
  processes go in registration order.

The clock never moves backwards: it advances to ``max(now, event.time)`` when
an event fires.  :meth:`SimulationKernel.run` is the only dispatch loop;
the opt-in profiler (:mod:`repro.obs.profile`) times handlers by wrapping
the handler table, so profiled and unprofiled runs dispatch identically and
an unprofiled run calls its handlers directly.

Bulk producers (the batched arrival streams of :mod:`repro.sim.arrivals`)
use :meth:`SimulationKernel.reserve_seqs` + :meth:`schedule_at_seq` to hold
a block of sequence numbers up front and fill it in chunks later: events
scheduled lazily keep the exact tie-break rank they would have had if they
had all been pushed eagerly before the run started.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

__all__ = ["Event", "PeriodicProcess", "SimProcess", "SimulationKernel"]

#: Sequence-number base of process ticks.  Ordinary events take sequence
#: numbers from a counter far below it, so a tick ranks after every event at
#: the same instant, and ticks rank among themselves by registration rank.
_TICK_SEQ = 1 << 62

#: How far past the horizon a simulator runs its kernel, so an event the
#: float arithmetic lands a hair beyond the horizon still fires.  Safe below
#: 2^24 s (about 194 days): from there on ``horizon + 1e-9 == horizon`` and
#: the slack vanishes.
HORIZON_SLACK_S = 1e-9


class Event:
    """One scheduled occurrence; ordered by ``(time, seq)``.

    Internally the kernel keeps ``(time, seq, event)`` tuples on its heap:
    sequence numbers are unique, so heap sifts resolve on the first two
    C-compared fields and never call back into Python -- ``__lt__`` below
    exists for API compatibility (sorting event handles in tests), not for
    the hot path.
    """

    __slots__ = ("time", "seq", "kind", "data", "cancelled")

    def __init__(self, time: float, seq: int, kind: str, data: Dict[str, Any]) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.data = data
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        # Equivalent to (time, seq) < (other.time, other.seq) without
        # allocating the tuples: heap sifts call this O(log n) times per
        # push/pop, which makes it one of the hottest functions in a run.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(t={self.time:.6f}, seq={self.seq}, kind={self.kind!r})"


@runtime_checkable
class SimProcess(Protocol):
    """A co-simulated component that computes its own next event time.

    The kernel asks ``next_event_time`` when the process is registered and
    again right after each ``handle``, keeps the answer on its heap as the
    process's tick, and calls ``handle`` once the clock has advanced there.
    Returning ``None`` means the process has nothing left to do; it is not
    asked again.

    Contract: ``next_event_time`` may change only when the process's own
    ``handle`` runs.  It may depend on state that ``handle`` updates, but not
    on other components' state, which would leave the armed tick stale.
    """

    def next_event_time(self, now: float) -> Optional[float]:
        ...

    def handle(self, now: float) -> None:
        ...


class PeriodicProcess:
    """A process that fires a callback on a fixed time grid.

    Shared by components that need a periodic tick (the platform autoscaler's
    evaluation interval, the fleet's utilisation sampler): ``next_event_time``
    is the next grid point, ``handle`` invokes the callback and advances on
    the grid (not ``now + interval``).  Tick ``k`` fires at
    ``start_s + k * interval_s``, computed from the integer tick count, so
    rounding never accumulates: at a 0.1-s interval the tenth tick is at
    exactly ``1.0``, where repeated addition would reach
    ``0.9999999999999999``.

    Periodic processes never run out of ticks; they are marked ``periodic``,
    which tells :meth:`SimulationKernel.run` without an ``until`` bound to
    stop once only periodic ticks remain.
    """

    periodic = True

    def __init__(self, interval_s: float, callback: Callable[[float], None], start_s: float = 0.0) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self._callback = callback
        self._start_s = float(start_s)
        self._ticks = 0

    def next_event_time(self, now: float) -> Optional[float]:
        return self._start_s + self._ticks * self.interval_s

    def handle(self, now: float) -> None:
        self._callback(now)
        self._ticks += 1


class SimulationKernel:
    """Deterministic discrete-event loop over one heap of events and process ticks."""

    def __init__(self, start_s: float = 0.0) -> None:
        #: Min-heap of (time, seq, event): tuple comparison is C-speed and,
        #: with unique seqs, never falls through to comparing the events.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq_next = 0
        self._now = float(start_s)
        #: The dispatch table: registered handlers, each wrapped by the
        #: profiler while one is installed.
        self._handlers: Dict[str, Callable[[Event], None]] = {}
        #: The handlers as registered while a profiler wraps the table.
        self._raw_handlers: Dict[str, Callable[[Event], None]] = {}
        #: Every registered process, in registration order (its index is the
        #: process's tie-break rank).
        self._processes: List[SimProcess] = []
        #: Armed ticks of non-periodic processes: pending work that keeps an
        #: unbounded run going.
        self._aperiodic_ticks = 0
        # Dormant profiling slot (see repro.obs.profile).
        self._profiler = None

    def set_profiler(self, profiler) -> None:
        """Install an opt-in event profiler (``None`` restores the raw handlers).

        The profiler wraps every handler (:meth:`KernelProfiler.wrap
        <repro.obs.profile.KernelProfiler.wrap>`), including ones registered
        later, so the dispatch loop is the same with and without one.
        """
        if self._profiler is not None:
            self._handlers = self._raw_handlers
        self._profiler = profiler
        if profiler is not None:
            self._raw_handlers = self._handlers
            self._handlers = {
                kind: profiler.wrap(handler, self._heap)
                for kind, handler in self._handlers.items()
            }

    # ------------------------------------------------------------------
    # Clock and registration
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register the handler for events of ``kind`` (one handler per kind)."""
        self._register(kind, handler)

    def _register(self, kind: str, handler: Callable[[Event], None]) -> None:
        if self._profiler is not None:
            self._raw_handlers[kind] = handler
            handler = self._profiler.wrap(handler, self._heap)
        self._handlers[kind] = handler

    def add_process(self, process: SimProcess) -> None:
        """Register a co-simulation process (ranked in registration order).

        The process is armed on the heap as a self-re-arming tick of kind
        ``process:<TypeName>``.
        """
        rank = len(self._processes)
        self._processes.append(process)
        kind = f"process:{type(process).__name__}"
        self._register(kind, self._fire_tick)
        periodic = bool(getattr(process, "periodic", False))
        self._arm_tick(Event(self._now, _TICK_SEQ + rank, kind,
                             {"process": process, "periodic": periodic}))

    def _arm_tick(self, tick: Event) -> None:
        """Push a process's tick at its next event time, if it has one."""
        time_s = tick.data["process"].next_event_time(self._now)
        if time_s is not None:
            tick.time = float(time_s)
            if not tick.data["periodic"]:
                self._aperiodic_ticks += 1
            heapq.heappush(self._heap, (tick.time, tick.seq, tick))

    def _fire_tick(self, tick: Event) -> None:
        """Handler of process ticks: run the process, then re-arm its tick."""
        if not tick.data["periodic"]:
            self._aperiodic_ticks -= 1
        tick.data["process"].handle(tick.time)
        self._arm_tick(tick)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, time_s: float, kind: str, data: Optional[Dict[str, Any]] = None) -> Event:
        """Schedule an event at absolute time ``time_s``; returns a cancellable handle.

        ``data=None`` shares one immutable empty mapping across events (the
        payload is a read-only contract; pass an explicit dict to attach
        mutable state).
        """
        seq = self._seq_next
        self._seq_next = seq + 1
        return self._push(time_s, seq, kind, data)

    def schedule_in(self, delay_s: float, kind: str, data: Optional[Dict[str, Any]] = None) -> Event:
        """Schedule an event ``delay_s`` seconds after the current time."""
        return self.schedule(self._now + delay_s, kind, data)

    def reserve_seqs(self, count: int) -> int:
        """Reserve a contiguous block of ``count`` sequence numbers; returns the first.

        A bulk producer that knows how many events it will eventually schedule
        claims its tie-break ranks up front and fills them in later with
        :meth:`schedule_at_seq`.  Events scheduled *after* the reservation get
        larger sequence numbers, exactly as if the reserved block had been
        pushed eagerly first -- which is what keeps chunked arrival streaming
        byte-identical to eager scheduling.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        start = self._seq_next
        self._seq_next += count
        return start

    def schedule_at_seq(
        self, time_s: float, seq: int, kind: str, data: Optional[Dict[str, Any]] = None
    ) -> Event:
        """Schedule an event with a pre-reserved sequence number.

        ``seq`` must come from :meth:`reserve_seqs` and ``time_s`` must not
        lie in the past (the event would otherwise fire late yet rank early).
        ``data=None`` shares one immutable empty mapping across events --
        callers must not mutate the payload of events scheduled this way.
        """
        if time_s < self._now:
            raise ValueError(
                f"cannot schedule reserved-seq event in the past ({time_s} < {self._now})"
            )
        return self._push(time_s, seq, kind, data)

    def _push(self, time_s: float, seq: int, kind: str, data: Optional[Dict[str, Any]]) -> Event:
        if time_s.__class__ is not float:
            # e.g. numpy-float retry backoffs: coerce so event times (and the
            # replay fingerprints derived from them) stay builtin floats.
            time_s = float(time_s)
        # Built via __new__ + attribute stores: one Event per simulated
        # occurrence makes construction itself a hot path, and skipping the
        # __init__ frame is measurably cheaper.
        event = _EVENT_NEW(Event)
        event.time = time_s
        event.seq = seq
        event.kind = kind
        event.data = _EMPTY_DATA if data is None else data
        event.cancelled = False
        _heappush(self._heap, (time_s, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Mark a scheduled event as cancelled; it is skipped when popped."""
        event.cancelled = True
        if self._profiler is not None:
            self._profiler.cancels += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _work_pending(self) -> bool:
        """Whether anything but periodic ticks is pending."""
        return self._aperiodic_ticks > 0 or any(
            seq < _TICK_SEQ and not event.cancelled for _, seq, event in self._heap
        )

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Execute events in order; returns the number executed.

        Stops when the queue drains, the next event lies strictly beyond
        ``until``, ``max_events`` events have been executed, or ``stop()``
        returns true after an event.  Events beyond ``until`` stay queued for
        a later ``run``.  Without an ``until`` bound, the run also stops once
        only *periodic* processes (see :class:`PeriodicProcess`) have pending
        ticks -- they never drain on their own.

        This is the kernel's only dispatch loop.  The head is popped *before*
        the ``until`` check and re-pushed in the (at most once per run) case
        where it lies beyond the bound, which is cheaper than peeking at every
        event.
        """
        executed = 0
        limit = -1 if max_events is None else max_events
        pruned = 0
        heap = self._heap
        handlers = self._handlers
        heappop = heapq.heappop
        try:
            while heap and executed != limit:
                head = heappop(heap)
                event = head[2]
                if event.cancelled:
                    pruned += 1
                    continue
                time_s = head[0]
                if until is not None:
                    if time_s > until:
                        _heappush(heap, head)
                        break
                elif head[1] >= _TICK_SEQ and not self._work_pending():
                    _heappush(heap, head)
                    break
                if time_s > self._now:
                    self._now = time_s
                handler = handlers.get(event.kind)
                if handler is None:
                    raise KeyError(f"no handler registered for event kind {event.kind!r}")
                handler(event)
                executed += 1
                if stop is not None and stop():
                    break
        finally:
            if pruned and self._profiler is not None:
                self._profiler.prunes += pruned
        return executed


#: Shared payload for bulk-scheduled events with no data.  Never mutate.
_EMPTY_DATA: Dict[str, Any] = {}

#: Hot-path aliases: module-level loads are cheaper than attribute chains
#: inside the per-event scheduling methods.
_EVENT_NEW = Event.__new__
_heappush = heapq.heappush
