"""Opt-in kernel profiling: where do a run's events and wall-time go?

The :class:`~repro.sim.kernel.SimulationKernel` and
:class:`~repro.sim.events.EventBus` each carry a dormant profiler slot
(``set_profiler``).  With no profiler installed -- the default everywhere --
the kernel calls its handlers directly and the bus takes its exact
pre-profiling branch: no ``perf_counter`` call, no dict lookup, nothing.
Installing a :class:`KernelProfiler` wraps every kernel handler
(:meth:`KernelProfiler.wrap`), so each dispatched event is tallied under its
kind with its handler wall-time and the heap depth after it ran; the kernel
also counts cancels and prunes, and the bus reports every publish (event
type, subscriber fan-out, dispatch wall-time).

:meth:`KernelProfiler.snapshot` freezes the tallies into a
:class:`KernelProfile` -- the record ``benchmarks/bench_kernel.py`` uses to
verify its measured event counts and the ``trace`` CLI prints per-kind
tables from.

Profiling measures *host* wall-time, so it is the one obs component whose
output is not seed-reproducible; the simulation results it observes still
are (the profiler only reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List

__all__ = ["KernelProfile", "KernelProfiler"]


# Mutable tallies are bare lists, not stat objects: list item updates are the
# cheapest mutation CPython offers, and a wrapped handler updates one per
# dispatched kernel event.  Layout: [count, wall_s] per kind; [count, fanout, wall_s]
# per published type.


@dataclass(frozen=True)
class KernelProfile:
    """An immutable snapshot of one profiled run."""

    #: total events dispatched by the kernel, process ticks included.
    events_total: int
    #: of those, process ticks (``process:<TypeName>`` kinds).
    process_events: int
    #: events cancelled before firing.
    cancels: int
    #: cancelled events popped (pruned) off the heap without dispatch.
    prunes: int
    #: deepest heap observed after a handler ran.
    max_heap_depth: int
    #: per event kind: {"count": n, "wall_s": t} (processes appear under
    #: ``process:<TypeName>``).
    by_kind: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per published bus event type: {"count", "fanout", "wall_s"}.
    publishes: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def publish_total(self) -> int:
        return int(sum(stats["count"] for stats in self.publishes.values()))

    def count_of(self, kind: str) -> int:
        """Dispatched-event count of one kernel event kind (0 if never seen)."""
        stats = self.by_kind.get(kind)
        return int(stats["count"]) if stats else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "events_total": self.events_total,
            "process_events": self.process_events,
            "cancels": self.cancels,
            "prunes": self.prunes,
            "max_heap_depth": self.max_heap_depth,
            "by_kind": self.by_kind,
            "publishes": self.publishes,
        }

    def table(self) -> List[str]:
        """Human-readable per-kind lines, busiest kind first."""
        lines = [
            f"events={self.events_total} (process={self.process_events}) "
            f"cancels={self.cancels} prunes={self.prunes} "
            f"max_heap_depth={self.max_heap_depth} publishes={self.publish_total}"
        ]
        ranked = sorted(self.by_kind.items(), key=lambda kv: -kv[1]["count"])
        for kind, stats in ranked:
            lines.append(
                f"  {kind:<40s} {int(stats['count']):>9d} events  {stats['wall_s'] * 1e3:10.3f} ms"
            )
        ranked_pub = sorted(self.publishes.items(), key=lambda kv: -kv[1]["count"])
        for name, stats in ranked_pub:
            lines.append(
                f"  publish:{name:<32s} {int(stats['count']):>9d} x{stats['fanout'] / stats['count']:.1f}"
                f" fan-out  {stats['wall_s'] * 1e3:10.3f} ms"
            )
        return lines


class KernelProfiler:
    """Mutable tally sink: wraps kernel handlers, and the bus reports into it."""

    __slots__ = ("_by_kind", "_publishes", "cancels", "prunes", "max_heap_depth")

    def __init__(self) -> None:
        self._by_kind: Dict[str, List[float]] = {}
        self._publishes: Dict[str, List[float]] = {}
        self.cancels = 0
        self.prunes = 0
        self.max_heap_depth = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def install(self, kernel, bus=None) -> "KernelProfiler":
        """Install on a kernel (and optionally its bus) via their opt-in slots."""
        kernel.set_profiler(self)
        if bus is not None:
            bus.set_profiler(self)
        return self

    def wrap(self, handler: Callable, heap: list) -> Callable:
        """``handler`` timed and tallied under the kind of each event it handles.

        The kernel wraps every handler in its table while the profiler is
        installed; ``heap`` is the kernel's heap, whose depth after the
        handler ran feeds :attr:`max_heap_depth`.
        """
        by_kind = self._by_kind

        def profiled(event) -> None:
            start = perf_counter()
            handler(event)
            wall_s = perf_counter() - start
            stats = by_kind.get(event.kind)
            if stats is None:
                by_kind[event.kind] = [1, wall_s]
            else:
                stats[0] += 1
                stats[1] += wall_s
            if len(heap) > self.max_heap_depth:
                self.max_heap_depth = len(heap)

        return profiled

    # ------------------------------------------------------------------
    # Hook called from the bus hot path (profiler installed only)
    # ------------------------------------------------------------------

    def record_publish(self, type_name: str, fanout: int, wall_s: float) -> None:
        stats = self._publishes.get(type_name)
        if stats is None:
            self._publishes[type_name] = [1, fanout, wall_s]
        else:
            stats[0] += 1
            stats[1] += fanout
            stats[2] += wall_s

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def events_total(self) -> int:
        # Derived at read time (sum over per-kind counts, which include the
        # process:* kinds) so the wrapped handlers never touch a second counter.
        return sum(s[0] for s in self._by_kind.values())

    @property
    def process_events(self) -> int:
        return sum(s[0] for kind, s in self._by_kind.items() if kind.startswith("process:"))

    def snapshot(self) -> KernelProfile:
        return KernelProfile(
            events_total=self.events_total,
            process_events=self.process_events,
            cancels=self.cancels,
            prunes=self.prunes,
            max_heap_depth=self.max_heap_depth,
            by_kind={
                kind: {"count": float(s[0]), "wall_s": s[1]}
                for kind, s in self._by_kind.items()
            },
            publishes={
                name: {"count": float(s[0]), "fanout": float(s[1]), "wall_s": s[2]}
                for name, s in self._publishes.items()
            },
        )
