"""Parallel scenario-sweep orchestrator.

A *scenario* is one fully specified simulation run: a picklable reference to
a top-level runner function (``"package.module:function"``), a parameter
mapping, and a seed.  The orchestrator fans a list of scenarios out across a
pluggable execution backend (:mod:`repro.sim.backends`: in-process serial, a
``multiprocessing`` pool, or a multi-node TCP work queue) and collects the
returned rows -- always reassembled into scenario order, so every backend
produces identical :class:`~repro.sim.results.ResultStore` contents.
Completed points can be journaled to a checkpoint (:mod:`repro.sim.checkpoint`)
as they finish and skipped on resume, so huge grids survive mid-sweep failures.

Seeding: :func:`build_grid` derives every scenario's seed from one base seed
and the scenario's identity via :func:`repro.sim.rng.derive_seed`, so a sweep
is reproducible run-to-run and independent of worker scheduling, yet no two
grid points share a stream.

This module sits at the top of ``repro.sim`` and is allowed to import domain
layers (platform presets, workloads) to provide the ready-made
:func:`platform_point` runner the CLI ``sweep`` subcommand uses; analysis
modules register their own runners by exposing top-level functions.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.sim.backends import PointOutcome, SweepBackend, SweepPointError, resolve_backend
from repro.sim.checkpoint import SweepJournal
from repro.sim.results import ResultStore
from repro.sim.rng import derive_seed

__all__ = [
    "Scenario",
    "SweepPointError",
    "build_grid",
    "platform_point",
    "resolve_platform",
    "resolve_runner",
    "resolve_workload",
    "run_scenario",
    "run_sweep",
    "trace_replay_point",
]

RowOrRows = Union[Mapping[str, object], Sequence[Mapping[str, object]]]
Runner = Callable[[Mapping[str, object], int], RowOrRows]


@dataclass(frozen=True)
class Scenario:
    """One grid point of a sweep.

    ``runner`` is a dotted-path reference (``"module.sub:function"``) to a
    top-level function ``f(params, seed) -> row | rows`` so scenarios stay
    picklable across process boundaries.
    """

    scenario_id: str
    runner: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0


def resolve_runner(runner: str) -> Runner:
    """Import and return the runner function behind a ``module:function`` path."""
    module_path, _, func_name = runner.partition(":")
    if not func_name:
        raise ValueError(f"runner {runner!r} must look like 'package.module:function'")
    module = importlib.import_module(module_path)
    try:
        return getattr(module, func_name)
    except AttributeError:
        raise ValueError(f"module {module_path!r} has no function {func_name!r}") from None


def run_scenario(scenario: Scenario) -> List[Dict[str, object]]:
    """Execute one scenario in the current process; returns its result rows."""
    runner = resolve_runner(scenario.runner)
    result = runner(dict(scenario.params), scenario.seed)
    if isinstance(result, Mapping):
        return [dict(result)]
    return [dict(row) for row in result]


_ID_ESCAPES = (("%", "%25"), ("/", "%2F"), ("=", "%3D"))


def _escape_id_component(text: str) -> str:
    """Make one axis name/value safe for the ``name=value/...`` scenario id.

    The scenario id doubles as the seed-derivation key, so two distinct grid
    points must never render to the same string -- yet an axis value like
    the platform label ``"aws/lambda"`` or ``"memory=2gb"`` contains the
    very separators the id is assembled from, and unescaped it can alias a
    *different* combination's id (and therefore its seed stream).
    Percent-encoding exactly the structural characters (``%`` first, so the
    encoding is injective) fixes that while keeping every legacy-safe value
    byte-identical: existing CSVs and golden files reproduce unchanged.
    """
    for raw, escaped in _ID_ESCAPES:
        text = text.replace(raw, escaped)
    return text


def build_grid(
    runner: str,
    axes: Mapping[str, Sequence[object]],
    common: Optional[Mapping[str, object]] = None,
    base_seed: int = 0,
    fixed_seed: Optional[int] = None,
) -> List[Scenario]:
    """The cartesian product of ``axes`` as a list of scenarios.

    Every combination becomes one :class:`Scenario` whose params are
    ``common`` plus the axis values, whose id names the combination, and
    whose seed is derived from ``base_seed`` and the scenario id (stable
    under grid re-ordering).  Axis names and values containing the id
    separators (``/``, ``=``, and the escape character ``%``) are
    percent-encoded in the id, so distinct combinations always get distinct
    ids and seed streams; separator-free values render exactly as before.
    Pass ``fixed_seed`` to give every point the same seed instead (e.g. to
    reproduce a legacy per-figure seeding scheme).
    """
    names = list(axes)
    scenarios: List[Scenario] = []
    for values in itertools.product(*(axes[name] for name in names)):
        point: Dict[str, object] = dict(common or {})
        point.update(zip(names, values))
        scenario_id = "/".join(
            f"{_escape_id_component(name)}={_escape_id_component(str(point[name]))}"
            for name in names
        )
        seed = fixed_seed if fixed_seed is not None else derive_seed(base_seed, scenario_id)
        scenarios.append(Scenario(scenario_id=scenario_id, runner=runner, params=point, seed=seed))
    return scenarios


def run_sweep(
    scenarios: Sequence[Scenario],
    backend: Union[str, SweepBackend, None] = None,
    checkpoint: Optional[str] = None,
    store: Optional[ResultStore] = None,
) -> ResultStore:
    """Run all scenarios and collect their rows, in scenario order.

    Execution is delegated to a pluggable :mod:`repro.sim.backends` backend:
    ``backend`` is a spec string (``"serial"``, the default;
    ``"multiprocessing[:N]"``, a pool of ``N`` workers or every core; or
    ``"socket-queue[:host]:port"`` -- a TCP work-queue server that remote
    ``repro-serverless-costs sweep-worker`` processes connect to) or any
    object implementing :class:`~repro.sim.backends.SweepBackend`.  Results
    are identical across all of them because each scenario is self-contained
    (runner path + params + seed) and rows are reassembled into grid order.

    ``checkpoint`` names a :class:`~repro.sim.checkpoint.SweepJournal` JSONL
    file: every point's rows are journaled the moment they arrive, and
    points already journaled under the same ``(scenario_id, seed)`` are
    skipped, so an interrupted sweep resumes where it left off and its final
    CSV is byte-identical to an uninterrupted run.

    A failing grid point raises :class:`SweepPointError` naming the point's
    ``scenario_id`` and ``seed`` (with the worker traceback attached when it
    ran remotely) -- *after* all rows completed so far have been flushed to
    the checkpoint, so with a journal attached a crash only ever costs the
    failing point.
    """
    store = store if store is not None else ResultStore()
    resolved = resolve_backend(backend, announce=lambda message: print(message, file=sys.stderr))
    collected: List[Optional[List[Dict[str, object]]]] = [None] * len(scenarios)
    journal = SweepJournal(checkpoint) if checkpoint is not None else None
    pending: List[Tuple[int, Scenario]] = list(enumerate(scenarios))
    if journal is not None:
        journaled = journal.load()
        if journaled:
            fresh: List[Tuple[int, Scenario]] = []
            for index, scenario in pending:
                rows = journaled.get((scenario.scenario_id, scenario.seed))
                if rows is None:
                    fresh.append((index, scenario))
                else:
                    collected[index] = rows
            skipped = len(pending) - len(fresh)
            if skipped:
                print(
                    f"checkpoint {journal.path}: skipping {skipped} already-journaled "
                    f"points, running {len(fresh)}",
                    file=sys.stderr,
                )
            pending = fresh
    failure: Optional[PointOutcome] = None
    outcomes = resolved.run(pending)
    try:
        for outcome in outcomes:
            if outcome.failed:
                failure = outcome
                break
            if collected[outcome.index] is not None:
                continue  # duplicate delivery (a re-queued socket-queue item)
            collected[outcome.index] = outcome.rows if outcome.rows is not None else []
            if journal is not None:
                journal.record(outcome.scenario_id, outcome.seed, collected[outcome.index])
    finally:
        closer = getattr(outcomes, "close", None)
        if closer is not None:
            closer()
        if journal is not None:
            journal.close()  # every completed row is on disk before any re-raise
    if failure is not None:
        error = failure.to_error()
        if failure.cause is not None:
            raise error from failure.cause
        raise error
    for rows in collected:
        store.extend(rows or [])
    return store


# ----------------------------------------------------------------------
# Ready-made runner: one platform-simulator run per grid point
# ----------------------------------------------------------------------


def resolve_platform(value: object):
    """A ``PlatformConfig`` from either a preset name or the config itself."""
    from repro.platform.config import PlatformConfig
    from repro.platform.presets import get_platform_preset

    if isinstance(value, PlatformConfig):
        return value
    return get_platform_preset(str(value))


def resolve_workload(value: object):
    """A ``WorkloadSpec`` from either a catalog name or the spec itself."""
    from repro.workloads.functions import WorkloadSpec, get_workload

    if isinstance(value, WorkloadSpec):
        return value
    return get_workload(str(value))


def _resolve_arrivals(params: Mapping[str, object], seed: int) -> List[float]:
    from repro.workloads.traffic import constant_rate_arrivals, poisson_arrivals

    rps = float(params.get("rps", 1.0))  # type: ignore[arg-type]
    duration_s = float(params.get("duration_s", 60.0))  # type: ignore[arg-type]
    if params.get("arrival_process", "constant") == "poisson":
        # Traffic gets its own named stream: seeding it with the run seed
        # directly would make the arrival draws bit-identical to the
        # simulator's overhead/keep-alive draws.
        return poisson_arrivals(rps, duration_s, seed=derive_seed(seed, "arrivals"))
    return constant_rate_arrivals(rps, duration_s)


def platform_point(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    """Simulate one (platform, workload, traffic) grid point and summarise it.

    Expected params: ``platform`` (preset name or ``PlatformConfig``),
    ``workload`` (catalog name or ``WorkloadSpec``), ``rps``, ``duration_s``,
    and optionally ``alloc_vcpus``, ``alloc_memory_gb``, ``init_duration_s``,
    ``arrival_process`` (``"constant"`` | ``"poisson"``) and ``label``.
    """
    from repro.platform.invoker import PlatformSimulator

    platform = resolve_platform(params["platform"])
    workload = resolve_workload(params["workload"])
    function = workload.to_function_config(
        float(params.get("alloc_vcpus", 1.0)),  # type: ignore[arg-type]
        float(params.get("alloc_memory_gb", 2.0)),  # type: ignore[arg-type]
        init_duration_s=float(params.get("init_duration_s", 1.0)),  # type: ignore[arg-type]
    )
    simulator = PlatformSimulator(platform, function, seed=seed)
    arrivals = _resolve_arrivals(params, seed)
    metrics = simulator.run(arrivals)
    summary = metrics.summary()
    nan = float("nan")
    row: Dict[str, object] = {
        "platform": params.get("label", platform.name),
        "workload": workload.name,
        "rps": float(params.get("rps", 1.0)),  # type: ignore[arg-type]
        "duration_s": float(params.get("duration_s", 60.0)),  # type: ignore[arg-type]
        "seed": seed,
        "num_requests": summary["num_requests"],
        "mean_duration_ms": summary.get("mean_execution_duration_s", nan) * 1e3,
        "median_duration_ms": summary.get("median_execution_duration_s", nan) * 1e3,
        "p95_duration_ms": summary.get("p95_execution_duration_s", nan) * 1e3,
        "cold_start_rate": summary.get("cold_start_rate", nan),
        "max_instances": summary.get("max_instances", 0.0),
    }
    return row


# ----------------------------------------------------------------------
# Ready-made runner: trace-driven scenarios from the synthetic generator
# ----------------------------------------------------------------------


def trace_replay_point(params: Mapping[str, object], seed: int) -> List[Dict[str, object]]:
    """Trace-driven sweep runner: replay a generated Huawei-like trace.

    Instead of a synthetic (rps, duration) parameter point, this runner
    generates a :class:`repro.traces.generator.TraceGenerator` trace shard
    (deterministically from the scenario seed), reconstructs each of its
    busiest functions as a :class:`~repro.platform.config.FunctionConfig`
    (flavor allocation and a CPU/IO split matching the function's profiled
    mean duration and CPU utilisation), and drives the platform simulator
    with the trace's actual arrival timestamps.  One result row per replayed
    function.

    Expected params: ``platform`` (preset name or config), and optionally
    ``num_requests`` / ``num_functions`` (trace shard size, defaults 2000/40),
    ``top_functions`` (how many of the busiest functions to replay, default 3),
    ``time_scale`` (compresses the trace's arrival timeline, default 1.0),
    ``billing`` (billing-model name; adds live-metered ``cost_usd`` per row)
    and ``label``.
    """
    from repro.billing.meter import CostMeter, RequestResources
    from repro.platform.config import FunctionConfig
    from repro.platform.invoker import PlatformSimulator
    from repro.traces.generator import TraceGenerator, TraceGeneratorConfig

    platform = resolve_platform(params["platform"])
    num_requests = int(params.get("num_requests", 2_000))  # type: ignore[arg-type]
    num_functions = int(params.get("num_functions", 40))  # type: ignore[arg-type]
    top_functions = int(params.get("top_functions", 3))  # type: ignore[arg-type]
    time_scale = float(params.get("time_scale", 1.0))  # type: ignore[arg-type]
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    billing = params.get("billing")

    trace = TraceGenerator(
        TraceGeneratorConfig(
            num_requests=num_requests,
            num_functions=num_functions,
            seed=derive_seed(seed, "trace"),
        )
    ).generate()

    arrivals_by_function: Dict[str, List[float]] = {}
    for record in trace.requests:
        arrivals_by_function.setdefault(record.function_id, []).append(record.arrival_s)
    busiest = sorted(arrivals_by_function, key=lambda fid: (-len(arrivals_by_function[fid]), fid))

    rows: List[Dict[str, object]] = []
    for function_id in busiest[:top_functions]:
        profile = trace.functions[function_id]
        # Split the profiled mean duration into CPU work and IO wait: consumed
        # CPU per request is utilisation x allocation x duration, and whatever
        # the CPU phase does not explain is modelled as IO.  A single request
        # executes at min(1, alloc) vCPU in the contention model, so CPU work
        # is capped there -- otherwise the replayed duration would exceed the
        # profiled one whenever utilisation x allocation > 1.
        cpu_rate = min(profile.alloc_vcpus, 1.0)
        cpu_time_s = min(
            profile.mean_cpu_utilization * profile.alloc_vcpus, cpu_rate
        ) * profile.mean_duration_s
        io_time_s = max(profile.mean_duration_s - cpu_time_s / cpu_rate, 0.0)
        function = FunctionConfig(
            name=function_id,
            alloc_vcpus=profile.alloc_vcpus,
            alloc_memory_gb=profile.alloc_memory_gb,
            cpu_time_s=cpu_time_s,
            io_time_s=io_time_s,
            used_memory_gb=profile.mean_memory_utilization * profile.alloc_memory_gb,
            init_duration_s=1.0,
        )
        simulator = PlatformSimulator(platform, function, seed=derive_seed(seed, "replay", function_id))
        meter = None
        if billing is not None:
            meter = CostMeter(str(billing)).attach(simulator.bus, RequestResources.from_function(function))
        arrivals = sorted(t * time_scale for t in arrivals_by_function[function_id])
        metrics = simulator.run(arrivals)
        if meter is not None:
            # Close instances still inside their keep-alive window so
            # instance-billed models account for every open lifespan.
            meter.finalize(simulator.kernel.now)
        summary = metrics.summary()
        nan = float("nan")
        row: Dict[str, object] = {
            "platform": params.get("label", platform.name),
            "function_id": function_id,
            "alloc_vcpus": profile.alloc_vcpus,
            "alloc_memory_gb": profile.alloc_memory_gb,
            "seed": seed,
            "num_requests": summary["num_requests"],
            "trace_mean_duration_ms": profile.mean_duration_s * 1e3,
            "mean_duration_ms": summary.get("mean_execution_duration_s", nan) * 1e3,
            "p95_duration_ms": summary.get("p95_execution_duration_s", nan) * 1e3,
            "cold_start_rate": summary.get("cold_start_rate", nan),
            "max_instances": summary.get("max_instances", 0.0),
        }
        if meter is not None:
            row["billing_platform"] = meter.model.platform
            row["cost_usd"] = meter.cost_usd
        rows.append(row)
    return rows
