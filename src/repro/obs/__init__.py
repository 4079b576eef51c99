"""`repro.obs`: passive, bus-fed observability for the simulation stack.

Three windows into a run, all attached *beside* the simulators rather than
inside them, at one seam: ``ClusterSimulator(obs=)``
(:class:`~repro.cluster.cosim.ClusterSimulator`; the CLI's ``cluster`` and
``backpressure`` ``--trace-out`` / ``--telemetry-out`` / ``--profile-out``
flags reach it through :class:`ObsParams`, the obs section of the first
grid point's params):

- **request tracing** (:mod:`repro.obs.trace`): a bus subscriber stitching
  per-attempt spans -- arrival, cold start / admission, execution,
  completion / failure / retry re-injection -- exportable as JSONL and as
  Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``);
- **time-series telemetry** (:mod:`repro.obs.metrics` +
  :mod:`repro.obs.telemetry`): counter/gauge/histogram primitives sampled on
  a kernel time grid into ring-buffered series with CSV export;
- **kernel profiling** (:mod:`repro.obs.profile`): opt-in wrappers around
  the kernel's event handlers and a hook on ``EventBus.publish()`` tallying
  events, wall-time, heap depth and dispatch fan-out per kind.

The contract that makes all of this safe to attach anywhere: **observers
only read**.  No component here mutates simulator state, draws randomness,
or schedules heap events; the one kernel interaction (the telemetry tick) is
a periodic kernel process whose handler reads gauges (its tick ranks by
registration and takes no event sequence number).  A run with an
:class:`Observability` attached is therefore byte-identical -- same CSVs,
same golden invoices, same replay fingerprints -- to the same seed without
one, and ``obs=None`` (the default) does not even subscribe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from repro.obs.profile import KernelProfile, KernelProfiler
from repro.obs.telemetry import TelemetryProcess
from repro.obs.trace import RequestSpan, SandboxSpan, TraceCollector, validate_chrome_trace
from repro.sim.events import (
    EventBus,
    RequestArrived,
    RequestCompleted,
    RequestExecuting,
    RequestFailed,
    RetryScheduled,
    SandboxAdmitted,
    SandboxColdStart,
    SandboxQueued,
    SandboxRejected,
)
from repro.sim.kernel import SimulationKernel

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "KernelProfile",
    "KernelProfiler",
    "MetricsRegistry",
    "ObsParams",
    "Observability",
    "RequestSpan",
    "SandboxSpan",
    "TelemetryProcess",
    "TraceCollector",
    "percentile",
    "validate_chrome_trace",
    "write_obs_artifacts",
]


@dataclass(frozen=True)
class ObsParams:
    """The obs section of a cluster grid point's params: artifact paths.

    Naming any of them attaches an :class:`Observability` to the point.
    """

    trace_out: Optional[str] = None
    telemetry_out: Optional[str] = None
    profile_out: Optional[str] = None

    def observability(self) -> Optional["Observability"]:
        """A fresh bundle when any artifact was asked for, else ``None``."""
        if self.trace_out or self.telemetry_out or self.profile_out:
            return Observability()
        return None


def write_obs_artifacts(obs: Optional["Observability"], artifacts: ObsParams) -> None:
    """Write whichever artifacts the point's obs section asked for (post-run)."""
    if obs is None:
        return
    if artifacts.trace_out:
        obs.write_trace(artifacts.trace_out)
    if artifacts.telemetry_out:
        obs.write_telemetry_csv(artifacts.telemetry_out)
    if artifacts.profile_out:
        import json

        with open(artifacts.profile_out, "w") as handle:
            json.dump(obs.kernel_profile().to_dict(), handle, indent=2, sort_keys=True)


class Observability:
    """One run's observability bundle: trace + telemetry + kernel profile.

    Construct, pass as ``obs=`` to a :class:`~repro.cluster.cosim.ClusterSimulator`
    (the one place it attaches), run, then export::

        obs = Observability()
        result = ClusterSimulator(deployments, ..., obs=obs).run()
        obs.write_trace("run.json")          # Chrome trace (.jsonl for spans)
        obs.write_telemetry_csv("run.csv")   # sampled series
        print("\\n".join(obs.kernel_profile().table()))

    Components are individually optional (``trace=False`` /
    ``profile=False`` / ``telemetry_interval_s=None``).  One instance serves
    one run: :meth:`attach` is called by the simulator and refuses reuse.
    """

    def __init__(
        self,
        telemetry_interval_s: Optional[float] = 1.0,
        trace: bool = True,
        profile: bool = True,
    ) -> None:
        self.registry = MetricsRegistry()
        self.trace: Optional[TraceCollector] = TraceCollector() if trace else None
        self.profiler: Optional[KernelProfiler] = KernelProfiler() if profile else None
        self.telemetry: Optional[TelemetryProcess] = (
            TelemetryProcess(self.registry, telemetry_interval_s)
            if telemetry_interval_s is not None
            else None
        )
        self._attached = False
        self._finalized_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Wiring (called by the owning simulator)
    # ------------------------------------------------------------------

    @property
    def attached(self) -> bool:
        return self._attached

    def attach(self, kernel: SimulationKernel, bus: EventBus) -> "Observability":
        """Subscribe collectors on ``bus`` and hook the kernel.  Once only."""
        if self._attached:
            raise RuntimeError("an Observability instance serves exactly one run")
        self._attached = True
        if self.trace is not None:
            self.trace.attach(bus)
        self._subscribe_metrics(bus)
        if self.telemetry is not None:
            kernel.add_process(self.telemetry)
        if self.profiler is not None:
            self.profiler.install(kernel, bus)
        return self

    def _subscribe_metrics(self, bus: EventBus) -> None:
        """Event-driven counters/histograms every traced run gets for free."""
        reg = self.registry
        arrivals = reg.counter("arrivals")
        retries = reg.counter("retry_arrivals")
        completions = reg.counter("completions")
        failures = reg.counter("failures")
        retry_scheduled = reg.counter("retries_scheduled")
        cold_starts = reg.counter("cold_starts")
        queued = reg.counter("sandboxes_queued")
        admitted = reg.counter("sandboxes_admitted")
        rejected = reg.counter("sandboxes_rejected")
        latency = reg.histogram("latency_s")
        execution = reg.histogram("execution_s")
        queue_wait = reg.histogram("admission_wait_s")

        def on_arrived(event: RequestArrived) -> None:
            arrivals.inc()
            if event.attempts > 1:
                retries.inc()

        def on_completed(event: RequestCompleted) -> None:
            completions.inc()
            outcome = event.outcome
            latency.observe(float(getattr(outcome, "end_to_end_latency_s", 0.0)))
            execution.observe(float(getattr(outcome, "execution_duration_s", 0.0)))

        def on_admitted(event: SandboxAdmitted) -> None:
            admitted.inc()
            queue_wait.observe(event.queue_wait_s)

        bus.subscribe(RequestArrived, on_arrived)
        bus.subscribe(RequestCompleted, on_completed)
        bus.subscribe(RequestFailed, lambda event: failures.inc())
        bus.subscribe(RetryScheduled, lambda event: retry_scheduled.inc())
        bus.subscribe(SandboxColdStart, lambda event: cold_starts.inc())
        bus.subscribe(SandboxQueued, lambda event: queued.inc())
        bus.subscribe(SandboxAdmitted, on_admitted)
        bus.subscribe(SandboxRejected, lambda event: rejected.inc())

    def finalize(self, horizon_s: float) -> None:
        """Close the books at the run horizon (censors still-open spans)."""
        if self._finalized_at is not None:
            return
        self._finalized_at = horizon_s
        if self.trace is not None:
            self.trace.finalize(horizon_s)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def kernel_profile(self) -> KernelProfile:
        if self.profiler is None:
            raise RuntimeError("profiling was disabled for this Observability")
        return self.profiler.snapshot()

    def write_trace(self, path: str) -> None:
        """Spans to ``path``: ``.jsonl`` -> span lines, else Chrome trace JSON."""
        if self.trace is None:
            raise RuntimeError("tracing was disabled for this Observability")
        if path.endswith(".jsonl"):
            self.trace.to_jsonl(path)
            return
        counters = self.telemetry.chrome_counters() if self.telemetry is not None else None
        self.trace.to_chrome_trace(path, counters)

    def write_telemetry_csv(self, path: str) -> None:
        if self.telemetry is None:
            raise RuntimeError("telemetry was disabled for this Observability")
        self.telemetry.to_csv(path)

    def summary(self) -> Dict[str, Any]:
        """Structured end-of-run digest (registry snapshot + span counts)."""
        out: Dict[str, Any] = {"metrics": self.registry.snapshot()}
        if self.trace is not None:
            spans = self.trace.spans
            out["spans"] = {
                "total": len(spans),
                "roots": sum(1 for s in spans if s.is_root),
                "completed": sum(1 for s in spans if s.outcome == "completed"),
                "failed": sum(1 for s in spans if s.outcome == "failed"),
                "denied": sum(1 for s in spans if s.outcome == "denied"),
                "censored": sum(1 for s in spans if s.outcome == "censored"),
            }
        if self.profiler is not None:
            out["kernel"] = self.kernel_profile().to_dict()
        return out
