"""The four benchmark workloads: build, run, fingerprint and check each one.

Every workload is a closed batch at a stated input size, built from the
seed it is given.  One repetition returns a :class:`Rep`: how long set-up
took (construction up to the first simulated event), how long the measured
run took and how many work items it completed.  :meth:`Rep.finish` then
reads the fingerprint of the simulated outputs and the output checks that
failed -- outside the timed (and traced) part of the repetition.

Fingerprints compare counts exactly and floats (money, latency, inflation
factors) within :data:`REL_TOL`.  Each run checks two things: the workload
at its ``tiny`` size and :data:`PIN_SEED` against the pinned fingerprints in
``pins.json`` (a model change fails this), and every timed repetition
against the invariants below and against the first repetition of the same
input (a determinism break fails this).
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import math
import multiprocessing
import os
import resource
import shutil
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional

#: Relative tolerance for simulated money, latency and inflation floats.  The
#: simulator is deterministic, so repeated runs agree bit for bit; the
#: tolerance only absorbs summation-order noise, far below any model change.
REL_TOL = 1e-9

#: Seed of the pinned reference repetition every run checks first.
PIN_SEED = 2026

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The five request-billed Table-1 models (instance-billed models meter
#: sandbox lifespans, which a trace replay has none of).
REQUEST_BILLED = (
    "aws_lambda",
    "gcp_run_request",
    "azure_consumption",
    "huawei_functiongraph",
    "cloudflare_workers",
)


#: What :func:`calibrate` takes on the reference host at its usual speed.
#: Reported times are scaled to this speed (see :func:`calibrate`).
REFERENCE_CALIBRATION_S = 0.020


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    Shared hosts change speed from second to second: on the 2-vCPU host this
    benchmark was built on, the slow state runs the same code about 1.65x
    slower.  Every repetition is bracketed by this loop, and its times are
    scaled by ``REFERENCE_CALIBRATION_S`` over the bracketing calibrations,
    which takes the host's speed out of the comparison between two commits
    measured on the same host.  The loop uses nothing from the simulator, so
    no change to the simulator can move the scale.
    """
    start = perf_counter()
    table: Dict[int, float] = {}
    heap: List[tuple] = []
    total = 0.0
    for index in range(30_000):
        key = index % 997
        table[key] = table.get(key, 0.0) + index * 0.5
        total += (index * 1.000001) % 7.0
        heapq.heappush(heap, (total, index))
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - start


def _calibration_helper(connection, parent_ends) -> None:
    """Helper-process loop: calibrate on request until told to stop."""
    # Drop the inherited parent ends, so a parent that dies hangs up on us.
    for end in parent_ends:
        end.close()
    # Keep the collector off the inherited heap, as in a fresh interpreter.
    gc.freeze()
    while connection.recv():
        connection.send(calibrate())


class Calibrator:
    """Runs :func:`calibrate` on ``cpus`` CPUs at once and averages.

    One CPU calibrates in the calling process; each other one in a helper
    process that lives until :meth:`close`.  Helpers are forked: the spawn
    and forkserver start methods would also start a resource-tracker (or
    fork-server) process that outlives :meth:`close`.
    """

    def __init__(self, cpus: int) -> None:
        context = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(cpus - 1):
            ours, theirs = context.Pipe()
            parent_ends = [connection for connection, _ in self._helpers] + [ours]
            process = context.Process(
                target=_calibration_helper, args=(theirs, parent_ends), daemon=True
            )
            process.start()
            theirs.close()
            self._helpers.append((ours, process))

    def calibrate(self) -> float:
        for connection, _ in self._helpers:
            connection.send(True)
        times = [calibrate()] + [connection.recv() for connection, _ in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for connection, process in self._helpers:
            connection.send(False)
            process.join(timeout=30)
            if process.is_alive():
                process.kill()
                process.join()
            connection.close()
        self._helpers = []


@dataclasses.dataclass
class Rep:
    """One repetition of a workload."""

    setup_s: float
    wall_s: float
    items: int
    #: Reads (fingerprint, problems, counters) off the finished run.
    _finish: Optional[Callable[[], tuple]]
    fingerprint: Dict[str, object] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)
    #: Domain counters read off the finished run (per-layer metrics).
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Worker-side facts of a pooled sweep (per-point timings, peak RSS).
    workers: Dict[str, object] = dataclasses.field(default_factory=dict)

    def finish(self) -> "Rep":
        self.fingerprint, self.problems, self.counters = self._finish()
        # Let the finished run's simulator and trace go.
        self._finish = None
        return self


def import_layers() -> None:
    """Import every simulator layer the workloads use (timed as set-up)."""
    import repro.analysis.backpressure  # noqa: F401
    import repro.billing.inflation  # noqa: F401
    import repro.billing.meter  # noqa: F401
    import repro.cluster.cosim  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.sim.backends  # noqa: F401
    import repro.sim.sweep  # noqa: F401
    import repro.traces.generator  # noqa: F401


def compare(expected: Mapping[str, object], actual: Mapping[str, object]) -> List[str]:
    """Mismatches between two fingerprints: exact for ints/strs, REL_TOL for floats."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if key not in expected or key not in actual:
            problems.append(f"{key}: present on one side only")
            continue
        want, got = expected[key], actual[key]
        if isinstance(want, float) or isinstance(got, float):
            if not math.isclose(float(want), float(got), rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(f"{key}: expected {want!r}, got {got!r}")
        elif want != got:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


def load_pins() -> Dict[str, Dict[str, object]]:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def repetition(name: str, seed: int, size: str, workdir: str, reference_csv: bytes = b"",
               obs=None) -> Rep:
    """One repetition of the named workload (``obs`` applies to ``stream_steady``)."""
    if name == "stream_steady":
        return stream_steady(seed, size, obs=obs)
    if name == "saturated_fullstack":
        return saturated_fullstack(seed, size)
    if name == "trace_billing":
        return trace_billing(seed, size)
    return sweep_grid(seed, size, workdir, reference_csv)


def pinned_fingerprint(name: str, workdir: str):
    """(fingerprint, problems) of a workload at its tiny size and the pinned seed."""
    if name == "sweep_grid":
        # The model outputs, without a pool: the serial backend's rows.
        rows, _ = serial_sweep(PIN_SEED, "tiny", workdir)
        return _sweep_fingerprint(rows), []
    rep = repetition(name, PIN_SEED, "tiny", workdir).finish()
    return rep.fingerprint, rep.problems


def write_pins(workdir: str) -> None:
    """Regenerate ``pins.json`` (only after an intended model change)."""
    pins = {}
    for name in WORKLOADS:
        fingerprint, problems = pinned_fingerprint(name, workdir)
        if problems:
            raise RuntimeError(f"{name}: refusing to pin a run that fails its checks: {problems}")
        pins[name] = fingerprint
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Cluster workloads: shared run and check helpers
# ----------------------------------------------------------------------


def _run_cluster(simulator, horizon_s: Optional[float], t0: float):
    """Run a built ClusterSimulator; returns (result, events, setup_s, wall_s).

    Set-up ends when the kernel starts dispatching: construction, param
    resolution and arrival scheduling all happen before ``kernel.run``.
    """
    kernel = simulator.kernel
    dispatch = kernel.run
    marks = {}

    def run(*args, **kwargs):
        marks["start"] = perf_counter()
        marks["events"] = dispatch(*args, **kwargs)
        return marks["events"]

    kernel.run = run
    try:
        result = simulator.run(horizon_s)
    finally:
        del kernel.run
    end = perf_counter()
    return result, marks["events"], marks["start"] - t0, end - marks["start"]


def _cluster_fingerprint(simulator, result, events: int) -> Dict[str, object]:
    metrics = list(result.metrics.values())
    fleet = result.fleet
    fingerprint: Dict[str, object] = {
        "events": events,
        "arrivals": sum(m.arrivals for m in metrics),
        "retry_arrivals": sum(m.retry_arrivals for m in metrics),
        "completed": sum(m.num_requests for m in metrics),
        "failed": sum(m.failed_requests for m in metrics),
        "denied": sum(m.denied_requests for m in metrics),
        "pending": sum(m.pending_requests for m in metrics),
        "in_flight": sum(s.in_flight_request_count for s in simulator.simulators.values()),
        # Counted by the meter off each function's own bus, independently of
        # the fleet's admission counters the conservation check compares.
        "cold_starts": result.meter.instances_started,
        "fleet_admitted": fleet.admitted,
        "fleet_queued": fleet.queued_total,
        "fleet_rejected": len(fleet.unplaceable),
        "hosts_opened": len(fleet.hosts),
        "latency_sum_s": float(sum(m.latency_sum_s for m in metrics)),
        "cost_usd": float(result.meter.cost_usd),
        "billable_cpu_seconds": float(result.meter.billable_cpu_seconds),
        "provider_cost_usd": float(fleet.provider_cost_usd(result.horizon_s)),
    }
    if result.scheduler is not None:
        fingerprint["sched_cpu_consumed_s"] = float(
            sum(t.cpu_consumed_s for t in result.scheduler.tasks.values())
        )
    if result.tenancy is not None:
        for tenant in result.tenancy.tenants:
            fingerprint[f"{tenant.name}:completed"] = tenant.completed
            fingerprint[f"{tenant.name}:slo_attained"] = tenant.slo_attained
            fingerprint[f"{tenant.name}:billed_usd"] = float(tenant.billed_usd)
    return fingerprint


def _cluster_problems(
    simulator, result, fingerprint, expected_organic: Optional[int]
) -> List[str]:
    """Conservation laws and the no-observer guarantee of one finished run."""
    problems = []
    # Arrival conservation per function (and so globally).
    for name, sim in simulator.simulators.items():
        m = sim.metrics
        accounted = (
            m.num_requests + m.failed_requests + m.denied_requests
            + sim.pending_request_count + sim.in_flight_request_count
        )
        if m.arrivals != accounted:
            problems.append(f"{name}: {m.arrivals} arrivals != {accounted} accounted for")
    organic = fingerprint["arrivals"] - fingerprint["retry_arrivals"]
    if expected_organic is not None and organic != expected_organic:
        problems.append(f"{organic} organic arrivals, expected {expected_organic}")
    # Per-tenant conservation.
    if result.tenancy is not None:
        for tenant in result.tenancy.tenants:
            accounted = (
                tenant.completed + tenant.failed + tenant.denied + tenant.pending
                + tenant.in_flight
            )
            if tenant.arrivals != accounted:
                problems.append(
                    f"{tenant.name}: {tenant.arrivals} arrivals != {accounted} accounted for"
                )
    # Every cold start reached the fleet exactly once.
    fleet = result.fleet
    direct = fleet.admitted - fleet.admitted_from_queue
    seen = direct + fleet.queued_total + len(fleet.unplaceable)
    if fingerprint["cold_starts"] != seen:
        problems.append(
            f"{fingerprint['cold_starts']} cold starts != {direct} direct + "
            f"{fleet.queued_total} queued + {len(fleet.unplaceable)} rejected"
        )
    if result.meter.num_requests != fingerprint["completed"]:
        problems.append(f"meter billed {result.meter.num_requests} != completed")
    # Timed runs attach no observers: no profiler, no span publishes.
    if any(getattr(owner, "_profiler", None) is not None
           for owner in (simulator.kernel, simulator.bus)):
        problems.append("a profiler is installed")
    if any(getattr(sim, "_emit_spans", False) for sim in simulator.simulators.values()):
        problems.append("span events are published")
    return problems


# ----------------------------------------------------------------------
# stream_steady
# ----------------------------------------------------------------------

STREAM_SIZES = {"full": 8_000, "tiny": 2_000}  # organic requests
STREAM_FUNCTIONS = 4
STREAM_RPS = 250.0


def stream_config(size: str) -> Dict[str, object]:
    return {
        "platform": "gcp_run_like", "workload": "pyaes", "functions": STREAM_FUNCTIONS,
        "rps_per_function": STREAM_RPS, "arrival_process": "constant",
        "requests": STREAM_SIZES[size], "billing": "gcp_run_request", "feedback": "on",
        "retain_outcomes": False, "drain_s": 120.0,
    }


def stream_steady(seed: int, size: str, obs=None) -> Rep:
    from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
    from repro.platform.presets import get_platform_preset
    from repro.workloads.functions import get_workload

    requests = STREAM_SIZES[size]
    t0 = perf_counter()
    duration_s = requests / (STREAM_FUNCTIONS * STREAM_RPS)
    preset = get_platform_preset("gcp_run_like")
    workload = get_workload("pyaes")
    deployments = [
        FunctionDeployment(
            function=dataclasses.replace(
                workload.to_function_config(1.0, 2.0, init_duration_s=1.0),
                name=f"fn-{index:03d}",
            ),
            platform=preset,
            rps=STREAM_RPS,
            duration_s=duration_s,
        )
        for index in range(STREAM_FUNCTIONS)
    ]
    simulator = ClusterSimulator(
        deployments,
        billing_platform="gcp_run_request",
        seed=seed,
        feedback="on",
        obs=obs,
        retain_outcomes=False,
    )
    # The default drain tail is sized for lightly loaded sandboxes; the
    # final burst at 250 rps needs an explicit horizon to finish.
    result, events, setup_s, wall_s = _run_cluster(simulator, duration_s + 120.0, t0)

    def finish():
        fingerprint = _cluster_fingerprint(simulator, result, events)
        problems = []
        if obs is None:
            problems = _cluster_problems(simulator, result, fingerprint, requests)
        retained = sum(len(m.requests) for m in result.metrics.values())
        if retained:
            problems.append(f"{retained} request outcomes retained in a streamed run")
        return fingerprint, problems, _cluster_counters(simulator, result, fingerprint)

    arrivals = sum(m.arrivals for m in result.metrics.values())
    return Rep(setup_s, wall_s, arrivals, finish)


def _cluster_counters(simulator, result, fingerprint) -> Dict[str, float]:
    counters: Dict[str, float] = {
        "events": fingerprint["events"],
        "completions": float(result.meter.num_requests),
        "fleet_queue_wait_s": float(result.fleet.queue_wait_total_s),
        "organic_arrivals": fingerprint["arrivals"] - fingerprint["retry_arrivals"],
        "arrivals": fingerprint["arrivals"],
    }
    if result.retry is not None:
        counters["retries"] = float(result.retry.retries_scheduled)
    admission = simulator.admission
    if admission is not None:
        counters["tenancy_admitted"] = float(sum(admission.admitted.values()))
        counters["tenancy_decisions"] = float(
            sum(admission.admitted.values()) - sum(admission.resumed.values())
            + sum(admission.denied.values()) + sum(admission.queued_total.values())
        )
    return counters


# ----------------------------------------------------------------------
# saturated_fullstack
# ----------------------------------------------------------------------

SATURATED_SIZES = {"full": 30.0, "tiny": 8.0}  # simulated seconds of traffic
SATURATED_FUNCTIONS = 8
SATURATED_RPS = 25.0


def saturated_config(size: str) -> Dict[str, object]:
    return {
        "platform": "aws_lambda_like", "workload": "pyaes", "functions": SATURATED_FUNCTIONS,
        "rps_per_function": SATURATED_RPS, "arrival_process": "poisson",
        "duration_s": SATURATED_SIZES[size], "flavors": "HUAWEI_FLAVORS in order",
        "fleet": "two_tier cost_fit, 4 hosts of 2 vCPU",
        "queue_depth": 8, "billing": "aws_lambda", "feedback": "on", "retry": "default policy",
        "tenants": 2, "tenant_on_exhausted": "queue", "tenant_slo_latency_s": 2.0,
        "scheduler": "SchedulerSim, 6 tasks",
    }


# The fleet and scheduler below mirror the private helpers behind
# ``backpressure_point``; the benchmark keeps its own copies so that a
# refactor of those helpers cannot break the benchmark that measures it.


def _two_tier_fleet(max_hosts: int):
    """Economy hosts next to a premium tier at twice the shape and 5x the price."""
    from repro.cluster.fleet import FleetConfig, ZoneConfig
    from repro.cluster.host import HostSpec
    from repro.cluster.placement import PlacementPolicy

    economy = HostSpec(vcpus=2.0, memory_gb=4.0, price_class="economy")
    premium = HostSpec(
        vcpus=4.0, memory_gb=8.0, hourly_cost_usd=economy.hourly_cost_usd * 5.0,
        price_class="premium",
    )
    split = (max_hosts + 1) // 2
    return FleetConfig(
        policy=PlacementPolicy.COST_FIT,
        zones=(
            ZoneConfig(name="economy", host_spec=economy, max_hosts=split),
            ZoneConfig(name="premium", host_spec=premium, max_hosts=max_hosts - split),
        ),
        queue_depth=8,
    )


def _scheduler(seed: int, horizon_s: float):
    """Six CPU-bound tasks under a half-vCPU bandwidth limit, drawn from the seed."""
    from repro.sched.engine import SchedulerSim
    from repro.sched.presets import scheduler_config_for
    from repro.sched.task import SimTask, TaskPhase
    from repro.sim.rng import named_generator

    rng = named_generator(seed, "sched")
    arrivals = sorted(float(t) for t in rng.uniform(0.0, horizon_s * 0.5, size=6))
    demands = rng.uniform(0.05, 0.4, size=6)
    tasks = [
        SimTask(phases=[TaskPhase.compute(float(demands[i]))], arrival_s=arrivals[i],
                name=f"sched-task-{i:02d}")
        for i in range(6)
    ]
    config = scheduler_config_for("aws_lambda", vcpu_fraction=0.5, horizon_s=horizon_s)
    return SchedulerSim(config, tasks)


def saturated_fullstack(seed: int, size: str) -> Rep:
    from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
    from repro.platform.presets import get_platform_preset
    from repro.sim.retry import RetryPolicy
    from repro.tenancy import TenantConfig
    from repro.traces.generator import HUAWEI_FLAVORS
    from repro.workloads.functions import get_workload

    duration_s = SATURATED_SIZES[size]
    t0 = perf_counter()
    preset = get_platform_preset("aws_lambda_like")
    # A keep-alive window a third of the traffic duration, so evictions free
    # capacity mid-run and the admission queue drains.
    keep_alive = preset.keep_alive
    keep_alive_s = duration_s / 3.0
    preset = dataclasses.replace(
        preset,
        keep_alive=dataclasses.replace(
            keep_alive,
            min_keep_alive_s=keep_alive.min_keep_alive_s * keep_alive_s / keep_alive.max_keep_alive_s,
            max_keep_alive_s=keep_alive_s,
        ),
    )
    workload = get_workload("pyaes")
    deployments = []
    for index in range(SATURATED_FUNCTIONS):
        # Fixed flavors: the seed moves arrivals, backoff jitter and the
        # scheduler's tasks, not how much capacity the functions demand.
        vcpus, memory_gb = HUAWEI_FLAVORS[index % len(HUAWEI_FLAVORS)]
        function = dataclasses.replace(
            workload.to_function_config(vcpus, memory_gb, init_duration_s=1.0),
            name=f"fn-{index:03d}",
        )
        deployments.append(FunctionDeployment(
            function=function, platform=preset, rps=SATURATED_RPS, duration_s=duration_s,
            arrival_process="poisson",
        ))
    # Each tenant's bucket refills at 80% of its offered organic load.
    refill = 0.8 * SATURATED_RPS * SATURATED_FUNCTIONS / 2
    tenants = [
        TenantConfig(name=f"tenant-{i:02d}", credit_capacity=50.0, credit_refill_per_s=refill,
                     on_exhausted="queue", slo_latency_s=2.0)
        for i in range(2)
    ]
    simulator = ClusterSimulator(
        deployments,
        fleet_config=_two_tier_fleet(max_hosts=4),
        billing_platform="aws_lambda",
        scheduler=_scheduler(seed, duration_s),
        seed=seed,
        feedback="on",
        retry=RetryPolicy(),
        tenants=tenants,
    )
    result, events, setup_s, wall_s = _run_cluster(simulator, None, t0)

    def finish():
        fingerprint = _cluster_fingerprint(simulator, result, events)
        problems = _cluster_problems(simulator, result, fingerprint, None)
        return fingerprint, problems, _cluster_counters(simulator, result, fingerprint)

    arrivals = sum(m.arrivals for m in result.metrics.values())
    return Rep(setup_s, wall_s, arrivals, finish)


# ----------------------------------------------------------------------
# sweep_grid
# ----------------------------------------------------------------------

SWEEP_RUNNER = "repro.analysis.backpressure:backpressure_point"
SWEEP_AXES = {
    "full": {
        "queue_depth": (0, 4, 16, 32),
        "placement_policy": ("best_fit", "cost_fit"),
        "heterogeneity": ("homogeneous", "two_tier"),
        "retry": ("off", "on"),
    },
    "tiny": {
        "queue_depth": (0, 4),
        "placement_policy": ("best_fit", "cost_fit"),
        "heterogeneity": ("two_tier",),
        "retry": ("off", "on"),
    },
}
#: Simulated seconds of traffic per grid point.
SWEEP_DURATION_S = {"full": 15.0, "tiny": 6.0}
#: The retry axis only matters on a closed loop over single-concurrency
#: sandboxes, where fleet rejections fail requests.
SWEEP_COMMON = {"feedback": "on", "platform": "aws_lambda_like", "billing": "aws_lambda"}


def sweep_workers() -> int:
    """Pool size: two workers, never more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def sweep_config(size: str) -> Dict[str, object]:
    axes = SWEEP_AXES[size]
    points = 1
    for values in axes.values():
        points *= len(values)
    return {
        "runner": SWEEP_RUNNER, "axes": {k: list(v) for k, v in axes.items()},
        "points": points, "duration_s": SWEEP_DURATION_S[size], **SWEEP_COMMON,
        "backend": "multiprocessing", "workers": sweep_workers(), "checkpoint": "jsonl journal",
    }


def _grid(seed: int, size: str):
    from repro.sim import sweep

    return sweep.build_grid(
        runner=SWEEP_RUNNER,
        axes=SWEEP_AXES[size],
        common={**SWEEP_COMMON, "duration_s": SWEEP_DURATION_S[size]},
        base_seed=seed,
    )


def _sweep_fingerprint(rows) -> Dict[str, object]:
    return {
        "points": len(rows),
        "num_requests": int(sum(row["num_requests"] for row in rows)),
        "failed_requests": int(sum(row["failed_requests"] for row in rows)),
        "retried_requests": int(sum(row.get("retried_requests", 0.0) for row in rows)),
        "cost_usd": float(sum(row["cost_usd"] for row in rows)),
        "mean_latency_ms_sum": float(sum(row["mean_latency_ms"] for row in rows)),
    }


def _csv_bytes(store, workdir: str) -> bytes:
    path = os.path.join(workdir, "rows.csv")
    store.to_csv(path)
    with open(path, "rb") as handle:
        return handle.read()


def serial_sweep(seed: int, size: str, workdir: str):
    """The grid through the in-process serial backend: (rows, CSV bytes)."""
    from repro.sim import sweep

    store = sweep.run_sweep(_grid(seed, size), backend="serial")
    return store.rows, _csv_bytes(store, workdir)


class _TimedRunner:
    """Times each grid point inside whichever process runs it.

    Swaps the runner function the grid names for a wrapper that appends
    ``start end peak_rss_kb`` to a per-process file.  Pool workers fork from
    the main process, so they resolve the runner path to the wrapper too.
    The clock is system-wide monotonic, so worker and main-process times
    compare.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def __enter__(self) -> "_TimedRunner":
        from repro.analysis import backpressure

        self._module = backpressure
        self._original = original = backpressure.backpressure_point
        directory = self.directory

        def timed(params, seed):
            start = perf_counter()
            row = original(params, seed)
            end = perf_counter()
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with open(os.path.join(directory, f"{os.getpid()}.txt"), "a") as handle:
                handle.write(f"{start!r} {end!r} {peak_kb}\n")
            return row

        backpressure.backpressure_point = timed
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._module.backpressure_point = self._original

    def points(self) -> List[tuple]:
        """``(pid, start, end, peak_rss_kb)`` of every point that ran."""
        out = []
        for name in sorted(os.listdir(self.directory)):
            pid = int(name.split(".")[0])
            with open(os.path.join(self.directory, name)) as handle:
                for line in handle:
                    start, end, peak_kb = line.split()
                    out.append((pid, float(start), float(end), int(peak_kb)))
        return out


def sweep_grid(seed: int, size: str, workdir: str, reference_csv: bytes) -> Rep:
    """The grid through a two-worker process pool with a checkpoint journal."""
    from repro.sim import sweep
    from repro.sim.backends import MultiprocessingBackend, SweepPointError

    rep_dir = tempfile.mkdtemp(dir=workdir)
    timing_dir = os.path.join(rep_dir, "timings")
    os.mkdir(timing_dir)
    journal = os.path.join(rep_dir, "journal.jsonl")
    workers = sweep_workers()
    t0 = perf_counter()
    scenarios = _grid(seed, size)
    failure = None
    with _TimedRunner(timing_dir) as runner:
        start = perf_counter()
        try:
            store = sweep.run_sweep(
                scenarios, backend=MultiprocessingBackend(workers), checkpoint=journal
            )
        except SweepPointError as error:
            store, failure = None, error
        end = perf_counter()
    points = runner.points()
    # Set-up runs until the first point starts in a worker: imports, grid
    # building and pool start-up.
    first = min((p[1] for p in points), default=start)
    peaks: Dict[int, int] = {}
    for pid, _, _, peak_kb in points:
        peaks[pid] = max(peaks.get(pid, 0), peak_kb)
    rows = store.rows if store is not None else []

    def finish():
        try:
            problems = [f"sweep point failed: {failure}"] if failure is not None else []
            if store is not None:
                if _csv_bytes(store, rep_dir) != reference_csv:
                    problems.append("pooled CSV differs from the serial backend's")
                with open(journal) as handle:
                    lines = sum(1 for _ in handle)
                if lines != len(scenarios):
                    problems.append(f"{lines} journal lines for {len(scenarios)} points")
            if len(points) != len(scenarios):
                problems.append(f"{len(points)} points timed for {len(scenarios)} points")
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        counters = {"points": float(len(scenarios)), "workers": float(workers)}
        return _sweep_fingerprint(rows), problems, counters

    rep = Rep(first - t0, end - first, len(rows), finish)
    rep.workers = {
        "sweep_start": start,
        "sweep_end": end,
        "points": [(p[1], p[2]) for p in points],
        "peak_rss_kb": sum(peaks.values()),
    }
    return rep


# ----------------------------------------------------------------------
# trace_billing
# ----------------------------------------------------------------------

TRACE_SIZES = {"full": 3_000, "tiny": 1_000}  # trace records
TRACE_FUNCTIONS = 200


def trace_config(size: str) -> Dict[str, object]:
    return {
        "generator": "huawei-like synthetic", "functions": TRACE_FUNCTIONS,
        "records": TRACE_SIZES[size], "billing_models": list(REQUEST_BILLED),
        "meter_path": "generic (trace records)",
    }


def trace_billing(seed: int, size: str) -> Rep:
    from repro.billing import meter as billing_meter
    from repro.billing.catalog import PlatformName
    from repro.billing.inflation import InflationAnalyzer
    from repro.sim.events import EventBus
    from repro.traces.generator import TraceGenerator, TraceGeneratorConfig

    t0 = perf_counter()
    generator = TraceGenerator(TraceGeneratorConfig(
        num_functions=TRACE_FUNCTIONS, num_requests=TRACE_SIZES[size], seed=seed
    ))
    analyzer = InflationAnalyzer([PlatformName(p) for p in REQUEST_BILLED])
    bus = EventBus()
    meters = {p: billing_meter.CostMeter(p).attach(bus) for p in REQUEST_BILLED}
    start = perf_counter()
    trace = generator.generate()
    inflation = analyzer.analyze(trace)
    ordered = billing_meter.replay_trace(trace, bus)
    end = perf_counter()
    return Rep(start - t0, end - start, len(ordered),
               lambda: _trace_finish(trace, inflation, ordered, meters))


def _trace_finish(trace, inflation, ordered, meters):
    from repro.billing.calculator import BillingCalculator

    problems: List[str] = []
    fingerprint: Dict[str, object] = {"records": len(ordered)}
    for platform, meter in meters.items():
        calculator = BillingCalculator(platform)
        cost = cpu = memory = fees = 0.0
        for record in ordered:
            billed = calculator.bill_request(record)
            cost += billed.invoice.total
            cpu += billed.billable_cpu_seconds
            memory += billed.billable_memory_gb_seconds
            fees += billed.invoice.charge_for("invocation_fee")
        # The live meter and the batch calculator agree float for float.
        live = (meter.cost_usd, meter.billable_cpu_seconds, meter.billable_memory_gb_seconds,
                meter.invocation_fee_usd)
        if live != (cost, cpu, memory, fees):
            problems.append(f"{platform}: live meter {live} != batch {(cost, cpu, memory, fees)}")
        if meter.num_requests != len(ordered):
            problems.append(f"{platform}: metered {meter.num_requests} of {len(ordered)} records")
        fingerprint[f"{platform}:cost_usd"] = float(meter.cost_usd)
    for platform, result in inflation.items():
        fingerprint[f"{platform.value}:cpu_inflation"] = float(result.aggregate_cpu_inflation)
        fingerprint[f"{platform.value}:memory_inflation"] = float(
            result.aggregate_memory_inflation
        )
    analyzed = len(next(iter(inflation.values())).actual_cpu_seconds)
    counters = {
        "records": float(len(trace.requests)),
        "analyzed": float(analyzed),
        "completions": float(sum(meter.num_requests for meter in meters.values())),
    }
    return fingerprint, problems, counters


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


#: Workload name -> its config at a given size (recorded in the report).
#: Why each workload exists is stated in ``BENCHMARK.json`` and the README.
WORKLOADS: Dict[str, Callable[[str], Dict[str, object]]] = {
    "stream_steady": stream_config,
    "saturated_fullstack": saturated_config,
    "sweep_grid": sweep_config,
    "trace_billing": trace_config,
}
