"""Parallel scenario-sweep orchestrator.

A *scenario* is one fully specified simulation run: a picklable reference to
a top-level runner function (``"package.module:function"``), a parameter
mapping, and a seed.  The orchestrator fans a list of scenarios out across a
pluggable execution backend (:mod:`repro.sim.backends`: in-process serial or
a ``multiprocessing`` pool) and collects the returned rows -- always
reassembled into scenario order, so every backend produces identical
:class:`~repro.sim.results.ResultStore` contents.
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

from repro.platform.config import PlatformConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import PLATFORM_PRESETS, get_platform_preset
from repro.sim.arrivals import ARRIVAL_PROCESSES
from repro.sim.backends import PointOutcome, SweepBackend, SweepPointError, resolve_backend
from repro.sim.checkpoint import SweepJournal
from repro.sim.params import from_mapping
from repro.sim.results import ResultStore
from repro.sim.rng import derive_seed
from repro.workloads.functions import WORKLOAD_CATALOG, WorkloadSpec, get_workload
from repro.workloads.traffic import constant_rate_arrivals, poisson_arrivals

__all__ = [
    "PlatformPointParams",
    "Scenario",
    "SweepPointError",
    "build_grid",
    "platform_point",
    "resolve_platform",
    "resolve_runner",
    "resolve_workload",
    "run_scenario",
    "run_sweep",
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
    ``backend`` is a spec string (``"serial"``, the default, or
    ``"multiprocessing[:N]"``, a pool of ``N`` workers or every core) or any
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
    ran in another process) -- *after* all rows completed so far have been
    flushed to the checkpoint, so with a journal attached a crash only ever
    costs the failing point.
    """
    store = store if store is not None else ResultStore()
    resolved = resolve_backend(backend)
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


def resolve_platform(value: object) -> PlatformConfig:
    """A ``PlatformConfig`` from either a preset name or the config itself."""
    if isinstance(value, PlatformConfig):
        return value
    return get_platform_preset(str(value))


def resolve_workload(value: object) -> WorkloadSpec:
    """A ``WorkloadSpec`` from either a catalog name or the spec itself."""
    if isinstance(value, WorkloadSpec):
        return value
    return get_workload(str(value))


@dataclass(frozen=True)
class PlatformPointParams:
    """The params keys of :func:`platform_point`, with their defaults.

    ``platform`` is a preset name or a ``PlatformConfig``; ``workload`` is a
    catalog name or a ``WorkloadSpec``.  ``label`` replaces the platform
    name in the row.
    """

    platform: Union[str, PlatformConfig] = field(metadata={"choices": PLATFORM_PRESETS})
    workload: Union[str, WorkloadSpec] = field(metadata={"choices": WORKLOAD_CATALOG})
    rps: float = 1.0
    duration_s: float = 60.0
    alloc_vcpus: float = 1.0
    alloc_memory_gb: float = 2.0
    init_duration_s: float = 1.0
    arrival_process: str = field(default="constant", metadata={"choices": ARRIVAL_PROCESSES})
    label: Optional[str] = None


def platform_point(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    """Simulate one (platform, workload, traffic) grid point and summarise it.

    The keys, defaults and allowed values are the fields of
    :class:`PlatformPointParams`.
    """
    point = from_mapping(PlatformPointParams, params)
    platform = resolve_platform(point.platform)
    workload = resolve_workload(point.workload)
    function = workload.to_function_config(
        point.alloc_vcpus, point.alloc_memory_gb, init_duration_s=point.init_duration_s
    )
    simulator = PlatformSimulator(platform, function, seed=seed)
    if point.arrival_process == "poisson":
        # Traffic gets its own named stream: seeding it with the run seed
        # directly would make the arrival draws bit-identical to the
        # simulator's overhead/keep-alive draws.
        arrivals = poisson_arrivals(point.rps, point.duration_s, seed=derive_seed(seed, "arrivals"))
    else:
        arrivals = constant_rate_arrivals(point.rps, point.duration_s)
    metrics = simulator.run(arrivals)
    summary = metrics.summary()
    nan = float("nan")
    row: Dict[str, object] = {
        "platform": point.label if point.label is not None else platform.name,
        "workload": workload.name,
        "rps": point.rps,
        "duration_s": point.duration_s,
        "seed": seed,
        "num_requests": summary["num_requests"],
        "mean_duration_ms": summary.get("mean_execution_duration_s", nan) * 1e3,
        "median_duration_ms": summary.get("median_execution_duration_s", nan) * 1e3,
        "p95_duration_ms": summary.get("p95_execution_duration_s", nan) * 1e3,
        "cold_start_rate": summary.get("cold_start_rate", nan),
        "max_instances": summary.get("max_instances", 0.0),
    }
    return row
