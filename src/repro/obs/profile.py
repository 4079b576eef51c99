"""Opt-in kernel profiling: where do a run's events and wall-time go?

The :class:`~repro.sim.kernel.SimulationKernel` and
:class:`~repro.sim.events.EventBus` each carry a dormant profiler slot
(``set_profiler``).  With no profiler installed -- the default everywhere --
their hot paths take the exact pre-profiling branch: no ``perf_counter``
call, no dict lookup, nothing.  With a :class:`KernelProfiler` installed the
kernel reports every dispatched event (kind, post-pop heap depth, handler
wall-time), every cancel and every prune, and the bus reports every publish
(event type, subscriber fan-out, dispatch wall-time).

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
from typing import Dict, List, Optional

__all__ = ["KernelProfile", "KernelProfiler"]


# Mutable tallies are bare lists, not stat objects: list item updates are the
# cheapest mutation CPython offers, and record_event runs once per dispatched
# kernel event.  Layout: [count, wall_s] per kind; [count, fanout, wall_s]
# per published type.


@dataclass(frozen=True)
class KernelProfile:
    """An immutable snapshot of one profiled run."""

    #: total heap + polled events dispatched by the kernel.
    events_total: int
    #: of those, process handler invocations (polled and periodic).
    process_events: int
    #: events cancelled before firing.
    cancels: int
    #: cancelled events popped (pruned) off the heap without dispatch.
    prunes: int
    #: deepest heap observed at dispatch time.
    max_heap_depth: int
    #: per event kind: {"count": n, "wall_s": t} (polled processes appear
    #: under ``process:<TypeName>``).
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
    """Mutable tally sink the kernel and bus report into when installed."""

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

    # ------------------------------------------------------------------
    # Hooks called from the kernel / bus hot paths (profiler installed only)
    # ------------------------------------------------------------------

    def record_event(self, kind: str, heap_depth: int, wall_s: float) -> None:
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth
        stats = self._by_kind.get(kind)
        if stats is None:
            self._by_kind[kind] = [1, wall_s]
        else:
            stats[0] += 1
            stats[1] += wall_s

    def record_process(self, type_name: str, wall_s: float) -> None:
        # Periodic processes fire as heap ticks of this same kind.
        kind = f"process:{type_name}"
        stats = self._by_kind.get(kind)
        if stats is None:
            self._by_kind[kind] = [1, wall_s]
        else:
            stats[0] += 1
            stats[1] += wall_s

    def record_cancel(self) -> None:
        self.cancels += 1

    def record_prunes(self, count: int) -> None:
        self.prunes += count

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
        # process:* kinds) so the per-event hooks never touch a second counter.
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
