"""The discrete-event simulation kernel shared by every simulator in the repo.

The kernel owns the clock and decides what happens next.  Three kinds of
participants coexist:

- **Scheduled events**: pushed onto a binary heap with an absolute firing
  time.  A monotonically increasing sequence number breaks time ties, so two
  events scheduled for the same instant always fire in scheduling order --
  this is what makes runs deterministic regardless of heap internals.
- **Polled processes**: objects that compute their own next event time on
  demand (e.g. the CPU-bandwidth scheduler, whose next event depends on
  mutable state such as remaining quota).  The kernel asks each registered
  process for its next event time and interleaves it with the heap.
- **Periodic processes** (``periodic = True``: autoscaler ticks, fleet
  samplers, telemetry): their next tick changes only when they handle one,
  so instead of being polled after every event they live on the heap as one
  self-re-arming tick each.  A tick's sequence number is
  :data:`_TICK_SEQ` plus the process's registration rank, which keeps the
  polled order exactly: heap events win exact-time ties, then processes go
  in registration order.

The clock never moves backwards: it advances to ``max(now, event.time)`` when
an event fires.  ``peek``/``step``/``pause`` let a host embed the kernel in a
larger co-simulation and advance it one event at a time.

``run`` is the hot path: it fuses the prune/poll/pick/dispatch cycle that
``peek`` + ``step`` would otherwise each repeat per event, so a
million-event run does each piece of bookkeeping exactly once per event.
Without polled processes it never polls at all.  The event *order* it
produces is identical to repeated ``step()`` calls -- the determinism
contract every replay-fingerprint test pins down.

Bulk producers (the batched arrival streams of :mod:`repro.sim.arrivals`)
use :meth:`SimulationKernel.reserve_seqs` + :meth:`schedule_at_seq` to hold
a block of sequence numbers up front and fill it in chunks later: events
scheduled lazily keep the exact tie-break rank they would have had if they
had all been pushed eagerly before the run started.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

__all__ = ["Event", "PeriodicProcess", "SimProcess", "SimulationKernel"]

#: Poll result when no process is pending; shared so the common
#: no-processes case never allocates.  Layout: (process, time, rank).
_NO_PROCESS: Tuple[None, float, int] = (None, float("inf"), -1)

#: Sequence-number base of periodic ticks.  Ordinary events take sequence
#: numbers from a counter far below it, so a tick ranks after every event at
#: the same instant, and ticks rank among themselves (and, in
#: :meth:`SimulationKernel._heap_goes_first`, against polled processes) by
#: registration rank.
_TICK_SEQ = 1 << 62


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

    The kernel polls ``next_event_time`` to find the process's next event and
    calls ``handle`` once the clock has advanced there.  Returning ``None``
    means the process currently has nothing to do.
    """

    def next_event_time(self, now: float) -> Optional[float]:
        ...

    def handle(self, now: float) -> None:
        ...


class PeriodicProcess:
    """A polled process that fires a callback on a fixed time grid.

    Shared by components that need a periodic tick (the platform autoscaler's
    evaluation interval, the fleet's utilisation sampler): ``next_event_time``
    is the next grid point, ``handle`` invokes the callback and advances on
    the grid (not ``now + interval``), so tick times stay exact multiples of
    the interval regardless of clock jitter.

    Periodic processes never run out of ticks; they are marked ``periodic``,
    which tells the kernel two things: the next tick time changes only when
    ``handle`` runs (so the tick can live on the heap instead of being
    polled), and :meth:`SimulationKernel.run` without an ``until`` bound
    should stop once only periodic ticks remain.
    """

    periodic = True

    def __init__(self, interval_s: float, callback: Callable[[float], None], start_s: float = 0.0) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self._callback = callback
        self._next_tick_s = float(start_s)

    def next_event_time(self, now: float) -> Optional[float]:
        return self._next_tick_s

    def handle(self, now: float) -> None:
        self._callback(now)
        self._next_tick_s += self.interval_s


class SimulationKernel:
    """Deterministic discrete-event loop: heap-scheduled events + polled processes."""

    def __init__(self, start_s: float = 0.0) -> None:
        #: Min-heap of (time, seq, event): tuple comparison is C-speed and,
        #: with unique seqs, never falls through to comparing the events.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq_next = 0
        self._now = float(start_s)
        self._handlers: Dict[str, Callable[[Event], None]] = {}
        self._default_handler: Optional[Callable[[Event], None]] = None
        #: Every registered process, in registration order (its index is the
        #: process's tie-break rank).
        self._processes: List[SimProcess] = []
        #: (rank, process) of the non-periodic processes, which are polled
        #: for their next event time.
        self._polled: List[Tuple[int, SimProcess]] = []
        self._paused = False
        # Memoised result of the last peek(): (best process or None, its
        # time, its rank).
        # Polling a process's next_event_time can be expensive (the scheduler
        # engine scans tasks, grids and quota budgets), and the peek/step pair
        # used by run loops would otherwise poll twice per event.  Invalidated
        # by schedule/cancel/add_process and consumed by step().
        self._poll_cache: Optional[Tuple[Optional[SimProcess], float]] = None
        # Dormant profiling slot (see repro.obs.profile): None keeps step(),
        # cancel() and _prune() on the exact pre-profiling paths.
        self._profiler = None

    def set_profiler(self, profiler) -> None:
        """Install an opt-in event profiler (``None`` restores the fast path)."""
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Clock and registration
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register the handler for events of ``kind`` (one handler per kind)."""
        self._handlers[kind] = handler

    def on_default(self, handler: Callable[[Event], None]) -> None:
        """Handler for kinds with no specific registration."""
        self._default_handler = handler

    def add_process(self, process: SimProcess) -> None:
        """Register a co-simulation process (ranked in registration order).

        A ``periodic`` process is armed on the heap as a self-re-arming tick
        (event kind ``process:<TypeName>``); any other process is polled.
        """
        rank = len(self._processes)
        self._processes.append(process)
        if not getattr(process, "periodic", False):
            self._polled.append((rank, process))
            self._poll_cache = None
            return
        kind = f"process:{type(process).__name__}"
        self._handlers[kind] = self._fire_tick
        self._arm_tick(process, _TICK_SEQ + rank, kind, {"process": process})

    def _arm_tick(self, process: SimProcess, seq: int, kind: str, data: Dict[str, Any]) -> None:
        """Push a periodic process's next tick, if it has one."""
        time_s = process.next_event_time(self._now)
        if time_s is not None:
            tick = Event(float(time_s), seq, kind, data)
            heapq.heappush(self._heap, (tick.time, seq, tick))

    def _fire_tick(self, tick: Event) -> None:
        """Handler of periodic ticks: run the process, then re-arm its tick."""
        process = tick.data["process"]
        process.handle(tick.time)
        self._arm_tick(process, tick.seq, tick.kind, tick.data)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, time_s: float, kind: str, data: Optional[Dict[str, Any]] = None) -> Event:
        """Schedule an event at absolute time ``time_s``; returns a cancellable handle.

        ``data=None`` shares one immutable empty mapping across events (the
        payload is a read-only contract; pass an explicit dict to attach
        mutable state).
        """
        if time_s.__class__ is not float:
            time_s = float(time_s)
        seq = self._seq_next
        self._seq_next = seq + 1
        # Events are built via __new__ + attribute stores here and in the
        # other schedule_* methods: one Event per simulated occurrence makes
        # construction itself a hot path, and skipping the __init__ frame
        # is measurably cheaper.
        event = _EVENT_NEW(Event)
        event.time = time_s
        event.seq = seq
        event.kind = kind
        event.data = _EMPTY_DATA if data is None else data
        event.cancelled = False
        _heappush(self._heap, (time_s, seq, event))
        self._poll_cache = None
        return event

    def schedule_in(self, delay_s: float, kind: str, data: Optional[Dict[str, Any]] = None) -> Event:
        """Schedule an event ``delay_s`` seconds after the current time."""
        time_s = self._now + delay_s
        if time_s.__class__ is not float:
            # e.g. numpy-float retry backoffs: coerce so event times (and the
            # replay fingerprints derived from them) stay builtin floats.
            time_s = float(time_s)
        seq = self._seq_next
        self._seq_next = seq + 1
        event = _EVENT_NEW(Event)
        event.time = time_s
        event.seq = seq
        event.kind = kind
        event.data = _EMPTY_DATA if data is None else data
        event.cancelled = False
        _heappush(self._heap, (time_s, seq, event))
        self._poll_cache = None
        return event

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
        if time_s.__class__ is not float:
            time_s = float(time_s)
        event = _EVENT_NEW(Event)
        event.time = time_s
        event.seq = seq
        event.kind = kind
        event.data = _EMPTY_DATA if data is None else data
        event.cancelled = False
        _heappush(self._heap, (time_s, seq, event))
        self._poll_cache = None
        return event

    def cancel(self, event: Event) -> None:
        """Mark a scheduled event as cancelled; it is skipped when popped."""
        event.cancelled = True
        self._poll_cache = None
        if self._profiler is not None:
            self._profiler.record_cancel()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _prune(self) -> None:
        heap = self._heap
        if self._profiler is None:
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
            return
        pruned = 0
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            pruned += 1
        if pruned:
            self._profiler.record_prunes(pruned)

    def _poll_processes(self) -> Tuple[Optional[SimProcess], float, int]:
        """The polled process with the earliest next event, its time and rank.

        Ties go to the earlier-registered process.  Cached until consumed.
        """
        cache = self._poll_cache
        if cache is None:
            if not self._polled:
                cache = _NO_PROCESS
            else:
                best: Optional[SimProcess] = None
                best_time = float("inf")
                best_rank = -1
                for rank, process in self._polled:
                    t = process.next_event_time(self._now)
                    if t is not None and t < best_time:
                        best = process
                        best_time = t
                        best_rank = rank
                cache = (best, best_time, best_rank)
            self._poll_cache = cache
        return cache

    def _heap_goes_first(self, process: Optional[SimProcess], process_time: float,
                         rank: int) -> bool:
        """Whether the (pruned) heap head fires before the polled ``process``."""
        heap = self._heap
        if not heap:
            return False
        if process is None:
            return True
        head_time, head_seq, _ = heap[0]
        if head_time != process_time:
            return head_time < process_time
        # Exact-time tie: events win; a periodic tick goes by registration rank.
        return head_seq < _TICK_SEQ or head_seq - _TICK_SEQ < rank

    def _work_pending(self) -> bool:
        """Whether the heap holds a live event that is not a periodic tick."""
        return any(seq < _TICK_SEQ and not event.cancelled for _, seq, event in self._heap)

    def peek(self) -> Optional[float]:
        """Time of the next event (heap or process) without executing it."""
        self._prune()
        process, process_time, _ = self._poll_processes()
        heap_time = self._heap[0][0] if self._heap else None
        if heap_time is None and process is None:
            return None
        if process is None:
            return heap_time
        if heap_time is None:
            return process_time
        return min(heap_time, process_time)

    def step(self) -> Optional[Event]:
        """Execute the single next event.

        Advances the clock and dispatches the event's handler (heap events
        and periodic ticks), or calls ``handle`` on the owning process (polled
        events, returned as a synthetic ``Event`` of kind ``"process"``).
        Returns ``None`` when nothing is pending.  Heap events win exact-time
        ties against processes; among processes, registration order breaks
        ties.
        """
        self._prune()
        process, process_time, rank = self._poll_processes()
        if self._heap_goes_first(process, process_time, rank):
            return self._dispatch_heap_event()
        if process is None:
            return None
        self._dispatch_process(process, process_time)
        return Event(self._now, -1, "process", {"process": process})

    def _dispatch_heap_event(self) -> Event:
        """Pop and dispatch the head heap event (already pruned)."""
        heap = self._heap
        event = heapq.heappop(heap)[2]
        self._poll_cache = None
        if event.time > self._now:
            self._now = event.time
        handler = self._handlers.get(event.kind, self._default_handler)
        if handler is None:
            raise KeyError(f"no handler registered for event kind {event.kind!r}")
        profiler = self._profiler
        if profiler is None:
            handler(event)
        else:
            start = perf_counter()
            handler(event)
            profiler.record_event(event.kind, len(heap), perf_counter() - start)
        return event

    def _dispatch_process(self, process: SimProcess, process_time: float) -> None:
        """Advance the clock to a polled process's event and let it handle it."""
        self._poll_cache = None
        # Hand the process the *raw* polled time: a process whose
        # next_event_time regressed behind the clock must get the chance to
        # detect it (the scheduler engine raises on backwards time) rather
        # than having the kernel silently clamp the error away.
        if process_time > self._now:
            self._now = process_time
        profiler = self._profiler
        if profiler is None:
            process.handle(process_time)
        else:
            start = perf_counter()
            process.handle(process_time)
            profiler.record_process(type(process).__name__, perf_counter() - start)

    def pause(self) -> None:
        """Stop the current ``run`` after the in-flight event (for co-simulation)."""
        self._paused = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Execute events in order; returns the number executed.

        Stops when the queue drains, the next event lies strictly beyond
        ``until``, ``max_events`` events have been executed, ``stop()``
        returns true after an event, or :meth:`pause` was called from a
        handler.  Events beyond ``until`` stay queued for a later ``run``.
        Without an ``until`` bound, the run also stops once only *periodic*
        processes (see :class:`PeriodicProcess`) have pending ticks -- they
        never drain on their own.

        This is the hot loop: prune, poll, pick and dispatch are fused into
        one pass per event (``peek()`` + ``step()`` would each redo the first
        two).  Kernels with no polled processes -- every simulation except
        one co-simulating the CPU scheduler, since periodic ticks live on the
        heap -- run a further-specialized inner loop with the prune, bound
        check and dispatch inlined.  Event order is identical to stepping
        one event at a time.
        """
        self._paused = False
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        while True:
            if max_events is not None and executed >= max_events:
                break
            if not self._polled:
                # Fast loop: nothing to poll, so the next event is always the
                # heap head.  The head is popped *before* the ``until`` bound
                # check and re-pushed in the (at most once per run) case where
                # it lies beyond the bound -- cheaper than peeking every
                # event.  Falls back to the general loop only if a handler
                # registers a polled process mid-run (which also invalidates
                # the hoisted profiler/handler locals, so they are re-read).
                handlers = self._handlers
                processes = self._polled
                profiler = self._profiler
                unbounded = max_events is None
                if profiler is None:
                    while heap:
                        head = heappop(heap)
                        event = head[2]
                        if event.cancelled:
                            continue
                        time_s = head[0]
                        if until is not None:
                            if time_s > until:
                                heappush(heap, head)
                                return executed
                        elif head[1] >= _TICK_SEQ and not self._work_pending():
                            heappush(heap, head)
                            return executed
                        if time_s > self._now:
                            self._now = time_s
                        handler = handlers.get(event.kind)
                        if handler is None:
                            handler = self._default_handler
                            if handler is None:
                                raise KeyError(
                                    f"no handler registered for event kind {event.kind!r}"
                                )
                        handler(event)
                        executed += 1
                        if not unbounded and executed >= max_events:
                            return executed
                        if self._paused:
                            return executed
                        if stop is not None and stop():
                            return executed
                        if processes:
                            break
                    else:
                        return executed
                    continue
                # Profiled twin of the loop above: the per-event tally is
                # inlined (dict get + list update on the profiler's own
                # stores) because a record_event() call per event costs more
                # than the tally itself.  The heap-depth maximum runs on a
                # local and is merged back in the ``finally`` so every exit
                # path (including handler exceptions) leaves the profiler
                # consistent.
                by_kind = profiler._by_kind
                stats_of = by_kind.get
                max_depth = profiler.max_heap_depth
                try:
                    while heap:
                        head = heappop(heap)
                        event = head[2]
                        if event.cancelled:
                            profiler.prunes += 1
                            continue
                        time_s = head[0]
                        if until is not None:
                            if time_s > until:
                                heappush(heap, head)
                                return executed
                        elif head[1] >= _TICK_SEQ and not self._work_pending():
                            heappush(heap, head)
                            return executed
                        if time_s > self._now:
                            self._now = time_s
                        kind = event.kind
                        handler = handlers.get(kind)
                        if handler is None:
                            handler = self._default_handler
                            if handler is None:
                                raise KeyError(
                                    f"no handler registered for event kind {kind!r}"
                                )
                        start = perf_counter()
                        handler(event)
                        wall_s = perf_counter() - start
                        stats = stats_of(kind)
                        if stats is None:
                            by_kind[kind] = [1, wall_s]
                        else:
                            stats[0] += 1
                            stats[1] += wall_s
                        depth = len(heap)
                        if depth > max_depth:
                            max_depth = depth
                        executed += 1
                        if not unbounded and executed >= max_events:
                            return executed
                        if self._paused:
                            return executed
                        if stop is not None and stop():
                            return executed
                        if processes:
                            break
                    else:
                        return executed
                finally:
                    if max_depth > profiler.max_heap_depth:
                        profiler.max_heap_depth = max_depth
                continue
            self._prune()
            process, process_time, rank = self._poll_processes()
            if self._heap_goes_first(process, process_time, rank):
                next_time, next_is_heap = heap[0][0], True
            elif process is not None:
                next_time, next_is_heap = process_time, False
            else:
                break
            if until is not None:
                if next_time > until:
                    break
            elif (next_is_heap and process is None and heap[0][1] >= _TICK_SEQ
                  and not self._work_pending()):
                break
            if next_is_heap:
                self._dispatch_heap_event()
            else:
                self._dispatch_process(process, process_time)  # type: ignore[arg-type]
            executed += 1
            if self._paused:
                break
            if stop is not None and stop():
                break
        return executed


#: Shared payload for bulk-scheduled events with no data.  Never mutate.
_EMPTY_DATA: Dict[str, Any] = {}

#: Hot-path aliases: module-level loads are cheaper than attribute chains
#: inside the per-event scheduling methods.
_EVENT_NEW = Event.__new__
_heappush = heapq.heappush
