"""`repro.sim`: the shared simulation substrate.

This package factors the event-loop machinery that used to be duplicated
across the platform simulator (`repro.platform.invoker`) and the CPU-bandwidth
scheduler (`repro.sched.engine`) into one reusable layer:

- :mod:`repro.sim.kernel` -- a discrete-event kernel: heap-ordered event queue
  with monotonic sequence numbers for deterministic tie-breaking, plus
  "processes" for co-simulating components that compute their own next event
  time (the scheduler engine, autoscalers, samplers), each kept on the same
  heap as a tick re-armed after every ``handle``.
- :mod:`repro.sim.events` -- a typed publish/subscribe event bus so metrics
  collectors and tracers subscribe to simulation events instead of being
  hard-wired into the simulators.
- :mod:`repro.sim.rng` -- named, seed-derived random streams
  (``numpy.random.Generator`` per stream) so adding a subscriber or reordering
  consumers never perturbs another component's randomness.
- :mod:`repro.sim.feedback` -- the execution-feedback coupling: a
  :class:`~repro.sim.feedback.PublishedRate` the scheduler publishes its
  slowdown into and every closed-loop simulator holds, so co-simulated
  layers share *state* (scheduler throttling stretches request service
  times) and not just a clock; a simulator given a rate also acts on the
  fleet's admission answers (queueing delays serving, rejection fails it).
  Resolved deterministically at event-schedule time.
- :mod:`repro.sim.retry` -- the client retry loop: a
  :class:`~repro.sim.retry.RetryPolicy` (bounded attempts, exponential
  seed-derived backoff, optional per-function budget) executed by a
  :class:`~repro.sim.retry.RetryLoop` the platform simulator asks once per
  failed attempt; the simulator re-schedules each retried request as a fresh
  arrival, so backpressure-rejected load comes back and re-loads the fleet
  instead of vanishing.
- :mod:`repro.sim.sweep` / :mod:`repro.sim.results` -- a scenario-sweep
  orchestrator that fans a grid of (platform x workload x config) runs out
  across a pluggable execution backend with per-run derived seeds, and the
  structured result store the rows land in.
- :mod:`repro.sim.params` -- the typed params boundary each runner parses
  its grid point through (:func:`~repro.sim.params.from_mapping`).
- :mod:`repro.sim.backends` / :mod:`repro.sim.checkpoint` -- the sweep
  execution seam (:class:`~repro.sim.backends.SweepBackend`: in-process
  serial or a process pool) and the append-only JSONL checkpoint
  journal that makes 10k+-point grids kill/resume-safe.  Every backend yields byte-identical results because
  rows are reassembled by grid index from per-point derived seeds.

Layering: ``kernel``/``events``/``rng``/``results`` depend only on the
standard library and numpy; ``sweep`` sits at the top of the package and
imports domain modules (platform presets, workloads) to provide ready-made
scenario runners, so this package imports it on first use only.
"""

from repro.sim.backends import (
    MultiprocessingBackend,
    PointOutcome,
    SerialBackend,
    SweepBackend,
    SweepPointError,
    resolve_backend,
)
from repro.sim.checkpoint import SweepJournal
from repro.sim.events import (
    EventBus,
    RequestCompleted,
    RequestFailed,
    SandboxBusy,
    SandboxColdStart,
    SandboxIdle,
    SandboxTerminated,
    SimEvent,
)
from repro.sim.feedback import PublishedRate
from repro.sim.kernel import Event, PeriodicProcess, SimulationKernel, SimProcess
from repro.sim.results import ResultStore
from repro.sim.retry import RetryLoop, RetryPolicy
from repro.sim.rng import RngStreams, derive_seed, named_generator

__all__ = [
    "Event",
    "EventBus",
    "MultiprocessingBackend",
    "PeriodicProcess",
    "PointOutcome",
    "PublishedRate",
    "RequestCompleted",
    "RequestFailed",
    "ResultStore",
    "RetryLoop",
    "RetryPolicy",
    "RngStreams",
    "SandboxBusy",
    "SandboxColdStart",
    "SandboxIdle",
    "SandboxTerminated",
    "Scenario",
    "SerialBackend",
    "SimEvent",
    "SimProcess",
    "SimulationKernel",
    "SweepBackend",
    "SweepJournal",
    "SweepPointError",
    "build_grid",
    "derive_seed",
    "named_generator",
    "resolve_backend",
    "run_scenario",
    "run_sweep",
]


def __getattr__(name: str) -> object:
    # The sweep module's names load on first use: it imports domain layers
    # that import this package's lower modules.
    if name in ("Scenario", "build_grid", "run_scenario", "run_sweep"):
        from repro.sim import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
