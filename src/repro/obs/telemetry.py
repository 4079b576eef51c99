"""Time-series telemetry: a periodic kernel process sampling the metrics registry.

The :class:`TelemetryProcess` is a periodic kernel process (the same
mechanism as the autoscaler's evaluation tick and the fleet's utilisation
sampler): on a fixed time grid it reads every counter and gauge in its
:class:`~repro.obs.metrics.MetricsRegistry` and appends one row to a ring
buffer.  Sampling only *reads* -- gauge callbacks are pure accessors into
live layer state -- so attaching telemetry leaves simulation results
byte-identical.

The ring buffer (``capacity`` rows) bounds memory on long runs: a
million-second run at a 1 s interval keeps only the trailing window, which
is what live dashboards and post-hoc tail analysis actually read.

Exports: :meth:`TelemetryProcess.to_csv` (one row per tick, union of metric
columns), :meth:`TelemetryProcess.summary` (per-metric mean/min/max plus
optional percentiles over the retained window), and
:meth:`TelemetryProcess.chrome_counters` (Chrome ``C`` counter events that
plot under the request lanes of a :class:`~repro.obs.trace.TraceCollector`
export).
"""

from __future__ import annotations

import csv
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, percentile
from repro.sim.kernel import PeriodicProcess

__all__ = ["TelemetryProcess"]


class TelemetryProcess:
    """Samples a registry on a time grid into ring-buffered series."""

    #: like every other grid sampler: an unbounded ``kernel.run()`` must not
    #: spin forever on telemetry ticks once real work has drained.
    periodic = True

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float = 1.0,
        capacity: int = 4096,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.registry = registry
        self.interval_s = float(interval_s)
        self.capacity = capacity
        self.rows: Deque[Dict[str, float]] = deque(maxlen=capacity)
        #: ticks taken (may exceed ``len(rows)`` once the ring wraps).
        self.samples_taken = 0
        self._grid = PeriodicProcess(interval_s, self._tick)

    # ------------------------------------------------------------------
    # Kernel process protocol (delegates grid bookkeeping)
    # ------------------------------------------------------------------

    def next_event_time(self, now: float) -> Optional[float]:
        return self._grid.next_event_time(now)

    def handle(self, now: float) -> None:
        self._grid.handle(now)

    def _tick(self, now: float) -> None:
        row: Dict[str, float] = {"time_s": now}
        row.update(self.registry.sample())
        self.rows.append(row)
        self.samples_taken += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def series(self, name: str) -> Tuple[List[float], List[float]]:
        """One metric's retained (times, values); missing ticks are skipped."""
        times: List[float] = []
        values: List[float] = []
        for row in self.rows:
            if name in row:
                times.append(row["time_s"])
                values.append(row[name])
        return times, values

    def columns(self) -> List[str]:
        """Union of sampled columns in first-seen order, ``time_s`` first."""
        seen: Dict[str, None] = {"time_s": None}
        for row in self.rows:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)

    def summary(self, percentiles: Iterable[float] = ()) -> Dict[str, Dict[str, float]]:
        """Per-metric stats over the retained window (optional percentiles).

        Histograms registered alongside the sampled series contribute their
        own observation-window summaries, so one call describes both the
        polled gauges and the event-driven distributions.
        """
        out: Dict[str, Dict[str, float]] = {}
        qs = tuple(percentiles)
        for name in self.columns():
            if name == "time_s":
                continue
            _, values = self.series(name)
            if not values:
                continue
            stats = {
                "mean": sum(values) / len(values),
                "min": min(values),
                "max": max(values),
                "last": values[-1],
            }
            for q in qs:
                label = q * 100.0 if q <= 1.0 else q
                stats[f"p{label:g}"] = percentile(values, q)
            out[name] = stats
        for name, histogram in self.registry.histograms().items():
            out[f"{name}:histogram"] = histogram.summary(qs or (0.5, 0.95, 0.99))
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_csv(self, path: str) -> None:
        """The retained window as CSV: one row per tick, union columns."""
        columns = self.columns()
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns, restval="")
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)

    def chrome_counters(self, pid: int = 0) -> List[Dict[str, Any]]:
        """The retained series as Chrome ``C`` counter events (one lane each)."""
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
            "args": {"name": "telemetry"},
        }]
        for row in self.rows:
            ts = row["time_s"] * 1e6
            for name, value in row.items():
                if name == "time_s":
                    continue
                events.append({
                    "name": name, "ph": "C", "ts": ts, "pid": pid, "tid": 0,
                    "args": {"value": value},
                })
        return events
