#!/usr/bin/env python
"""Kernel / co-simulation throughput benchmark -- the repo's perf gate.

Standalone script (deliberately *not* named ``test_*``: the pytest harness in
this directory regenerates paper figures; this one measures the simulation
substrate itself).  Six timed runs at fixed seeds:

- ``kernel_events``: raw heap-event dispatch through ``SimulationKernel.run``
  (a self-rescheduling handler chain), count cross-checked against an
  attached :class:`~repro.obs.profile.KernelProfiler`;
- ``bus_publish``: typed pub/sub dispatch through ``EventBus.publish`` with a
  realistic subscriber mix (exact type + MRO base);
- ``cluster_requests``: one full cluster co-simulation (platform + fleet +
  billing + scheduler in one kernel), events = completed requests so
  ``events_per_s`` reads as requests/second;
- ``sweep``: a small sequential backpressure grid, events = result rows;
- ``million_events``: the ``kernel_events`` chain at scale (1M events in the
  full configuration), profiler-verified;
- ``million_requests``: a 1M-request cluster run on one core with *streamed*
  arrivals (``ArrivalSource`` chunks, ``retain_outcomes=False``) -- the run
  asserts the kernel heap stayed bounded and no per-request outcome objects
  were retained, i.e. memory does not scale with the request count.

Short timed runs repeat several times and report the best (minimum) wall
clock -- the standard defence against scheduler noise on a shared single
core; the repeat count is recorded in each run's ``config``.  Event counts
are seed-deterministic and must be identical across repeats (asserted).

Output is ``BENCH_kernel.json`` at the repo root (schema: ``{"area":
"kernel", "runs": [{name, seed, events, wall_s, events_per_s, config}]}``)
so later PRs can diff the measured perf trajectory.  ``--quick`` shrinks
every run for CI smoke use.  ``--baseline PATH`` compares against a previous
output file after running: per-run events/s deltas are printed (advisory --
wall clock is machine-dependent), but an *event-count* difference between
runs with identical configs is a determinism regression and fails the
script.

Usage::

    python benchmarks/bench_kernel.py            # full sizes, writes BENCH_kernel.json
    python benchmarks/bench_kernel.py --quick    # CI smoke sizes
    python benchmarks/bench_kernel.py --output /tmp/bench.json
    python benchmarks/bench_kernel.py --quick --baseline BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.profile import KernelProfiler  # noqa: E402
from repro.sim.events import EventBus, RequestCompleted, SimEvent  # noqa: E402
from repro.sim.kernel import SimulationKernel  # noqa: E402

#: Seed shared by every run: the benchmark measures speed, not statistics,
#: and a fixed seed keeps event counts identical run-to-run.
SEED = 2026


def _best_of(make_run: Callable[[], Dict[str, object]], repeats: int) -> Dict[str, object]:
    """Run a benchmark ``repeats`` times, keep the fastest wall clock.

    The event count is deterministic, so repeats must agree on it exactly;
    only the timing varies with machine noise.
    """
    best: Optional[Dict[str, object]] = None
    for _ in range(max(1, repeats)):
        run = make_run()
        if best is not None and run["events"] != best["events"]:
            raise AssertionError(
                f"{run['name']}: event count changed across repeats "
                f"({best['events']} != {run['events']}) -- the run is not deterministic"
            )
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    assert best is not None
    best["config"]["repeats"] = max(1, repeats)  # type: ignore[index]
    return best


def bench_kernel_events(num_events: int, name: str = "kernel_events") -> Dict[str, object]:
    """Raw heap throughput: one self-rescheduling event chain of known length."""
    kernel = SimulationKernel()
    profiler = KernelProfiler()
    profiler.install(kernel)
    state = {"fired": 0}

    def tick(event) -> None:
        state["fired"] += 1
        if state["fired"] < num_events:
            kernel.schedule_in(0.001, "tick")

    kernel.on("tick", tick)
    kernel.schedule(0.0, "tick")
    start = perf_counter()
    kernel.run()
    wall_s = perf_counter() - start
    fired = state["fired"]
    profiled = profiler.snapshot().count_of("tick")
    if fired != num_events or profiled != num_events:
        raise AssertionError(
            f"{name} miscount: fired={fired} profiled={profiled} expected={num_events}"
        )
    return {
        "name": name,
        "seed": SEED,
        "events": fired,
        "wall_s": wall_s,
        "config": {"num_events": num_events},
    }


def bench_million_events(num_events: int) -> Dict[str, object]:
    """The kernel chain at million-event scale, profiler-verified."""
    return bench_kernel_events(num_events, name="million_events")


def bench_bus_publish(num_events: int) -> Dict[str, object]:
    """Typed pub/sub throughput with an exact-type and a base-type subscriber."""

    @dataclasses.dataclass(frozen=True)
    class BenchEvent(SimEvent):
        value: int = 0

    bus = EventBus()
    state = {"exact": 0, "base": 0}
    bus.subscribe(BenchEvent, lambda event: state.__setitem__("exact", state["exact"] + 1))
    bus.subscribe(SimEvent, lambda event: state.__setitem__("base", state["base"] + 1))
    events = [BenchEvent(time_s=float(index), value=index) for index in range(num_events)]
    start = perf_counter()
    for event in events:
        bus.publish(event)
    wall_s = perf_counter() - start
    if state["exact"] != num_events or state["base"] != num_events:
        raise AssertionError(f"bus_publish miscount: {state} expected={num_events}")
    return {
        "name": "bus_publish",
        "seed": SEED,
        "events": num_events,
        "wall_s": wall_s,
        "config": {"num_events": num_events},
    }


def bench_cluster_requests(duration_s: float) -> Dict[str, object]:
    """One co-simulated cluster point; events = completed requests."""
    from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
    from repro.cluster.fleet import FleetConfig
    from repro.cluster.host import HostSpec
    from repro.platform.presets import get_platform_preset
    from repro.workloads.functions import get_workload

    preset = get_platform_preset("gcp_run_like")
    workload = get_workload("pyaes")
    deployments = []
    for index in range(8):
        function = dataclasses.replace(
            workload.to_function_config(1.0, 2.0, init_duration_s=1.0),
            name=f"fn-{index:03d}",
        )
        deployments.append(
            FunctionDeployment(
                function=function, platform=preset, rps=4.0, duration_s=duration_s
            )
        )
    simulator = ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(host_spec=HostSpec(vcpus=16.0, memory_gb=64.0)),
        billing_platform="gcp_run_request",
        seed=SEED,
        feedback="on",
    )
    profiler = KernelProfiler().install(simulator.kernel, simulator.bus)
    start = perf_counter()
    result = simulator.run()
    wall_s = perf_counter() - start
    completed = sum(m.num_requests for m in result.metrics.values())
    arrivals = sum(m.arrivals for m in result.metrics.values())
    # The profiler's publish tally must agree with the domain metrics: every
    # completion crossed the bus exactly once.
    published = profiler.snapshot().publishes.get("RequestCompleted")
    if published is None or published["count"] != completed:
        raise AssertionError(
            f"cluster_requests miscount: published={published} completed={completed}"
        )
    if arrivals < completed:
        raise AssertionError(f"arrivals {arrivals} < completed {completed}")
    return {
        "name": "cluster_requests",
        "seed": SEED,
        "events": completed,
        "wall_s": wall_s,
        "config": {"duration_s": duration_s, "functions": 8, "rps": 4.0},
    }


def bench_million_requests(num_requests: int) -> Dict[str, object]:
    """A million-request cluster run on one core with bounded memory.

    Arrivals are *streamed* (chunked ``ArrivalSource`` scheduling, tie-break
    ranks reserved up front) and ``retain_outcomes=False`` drops per-request
    outcome objects at record time, so neither the kernel heap nor the
    metrics layer ever holds the full request population.  Both properties
    are asserted, not assumed: the profiler's ``max_heap_depth`` must stay a
    small multiple of the arrival chunk size, and the retained-outcome lists
    must be empty.
    """
    from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
    from repro.platform.presets import get_platform_preset
    from repro.sim.arrivals import DEFAULT_CHUNK_SIZE
    from repro.workloads.functions import get_workload

    functions = 4
    rps = 250.0
    duration_s = num_requests / (functions * rps)
    preset = get_platform_preset("gcp_run_like")
    workload = get_workload("pyaes")
    deployments = []
    for index in range(functions):
        function = dataclasses.replace(
            workload.to_function_config(1.0, 2.0, init_duration_s=1.0),
            name=f"fn-{index:03d}",
        )
        deployments.append(
            FunctionDeployment(
                function=function, platform=preset, rps=rps, duration_s=duration_s
            )
        )
    simulator = ClusterSimulator(
        deployments,
        seed=SEED,
        feedback="off",
        retain_outcomes=False,
    )
    profiler = KernelProfiler().install(simulator.kernel, simulator.bus)
    # The default drain tail is sized for lightly loaded sandboxes; at 250
    # rps the final burst sits in one heavily contended sandbox and needs a
    # few extra simulated seconds, so give the run an explicit horizon.
    start = perf_counter()
    result = simulator.run(horizon_s=duration_s + 120.0)
    wall_s = perf_counter() - start
    metrics = result.metrics.values()
    arrivals = sum(m.arrivals for m in metrics)
    completed = sum(m.num_requests for m in metrics)
    failed = sum(m.failed_requests for m in metrics)
    pending = sum(m.pending_requests for m in metrics)
    if arrivals != num_requests:
        raise AssertionError(
            f"million_requests scheduled {arrivals} arrivals, expected {num_requests}"
        )
    if completed + failed + pending != arrivals:
        raise AssertionError(
            f"million_requests conservation violated: {completed}+{failed}+{pending} != {arrivals}"
        )
    retained = sum(len(m.requests) for m in metrics)
    if retained:
        raise AssertionError(f"million_requests retained {retained} outcome objects")
    profile = profiler.snapshot()
    # Streamed arrivals keep at most one chunk per deployment pending; the
    # rest of the heap is in-flight work, which is rate- not count-bound.
    heap_bound = functions * DEFAULT_CHUNK_SIZE + 16_384
    if profile.max_heap_depth >= heap_bound:
        raise AssertionError(
            f"million_requests heap grew to {profile.max_heap_depth} "
            f"(bound {heap_bound}) -- arrivals were not streamed"
        )
    return {
        "name": "million_requests",
        "seed": SEED,
        "events": completed,
        "wall_s": wall_s,
        "config": {
            "num_requests": num_requests,
            "functions": functions,
            "rps": rps,
            "arrival_process": "constant",
            "retain_outcomes": False,
            "max_heap_depth": profile.max_heap_depth,
        },
    }


def bench_sweep(duration_s: float) -> Dict[str, object]:
    """Sequential backpressure grid wall-clock; events = result rows."""
    from repro.analysis.backpressure import backpressure_sweep

    axes = {
        "queue_depth": (0, 4),
        "placement_policy": ("best_fit",),
        "heterogeneity": ("homogeneous", "two_tier"),
    }
    start = perf_counter()
    store = backpressure_sweep(
        axes=axes, common={"duration_s": duration_s, "feedback": "on"}, base_seed=SEED
    )
    wall_s = perf_counter() - start
    if len(store) != 4:
        raise AssertionError(f"sweep produced {len(store)} rows, expected 4")
    return {
        "name": "sweep",
        "seed": SEED,
        "events": len(store),
        "wall_s": wall_s,
        "config": {"duration_s": duration_s, "grid_points": 4},
    }


def run_benchmarks(quick: bool) -> Dict[str, object]:
    # Untimed warmup: the first seconds of a process run ~30% slower (cold
    # caches, CPU frequency ramp), a cost best-of-N repeats of an
    # already-cold run cannot absorb.  Promotion to steady-state speed takes
    # sustained busy time, so warm up by wall clock, not event count.
    warm_s = 0.0
    while warm_s < 2.5:
        warm_s += float(bench_kernel_events(200_000)["wall_s"])
    runs: List[Dict[str, object]] = [
        _best_of(lambda: bench_kernel_events(20_000 if quick else 200_000), repeats=5),
        _best_of(lambda: bench_bus_publish(20_000 if quick else 200_000), repeats=5),
        _best_of(lambda: bench_cluster_requests(10.0 if quick else 60.0), repeats=5),
        _best_of(lambda: bench_sweep(10.0 if quick else 30.0), repeats=1),
        _best_of(lambda: bench_million_events(100_000 if quick else 1_000_000), repeats=3),
        _best_of(lambda: bench_million_requests(20_000 if quick else 1_000_000), repeats=1),
    ]
    for run in runs:
        wall_s = float(run["wall_s"])  # type: ignore[arg-type]
        run["wall_s"] = round(wall_s, 6)
        run["events_per_s"] = round(float(run["events"]) / wall_s, 3) if wall_s > 0 else 0.0  # type: ignore[arg-type]
    return {"area": "kernel", "runs": runs}


def compare_to_baseline(payload: Dict[str, object], baseline_path: str) -> int:
    """Print per-run deltas against a previous output file.

    Wall-clock / throughput changes are advisory (machines differ; noise is
    real).  An event-count change between two runs with *identical configs*
    means the simulation itself changed behaviour under the same seed -- the
    one thing this benchmark is allowed to hard-fail on.  Baselines written
    by older versions of this script have no ``config`` field; their counts
    are skipped, not compared.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    baseline_runs = {run["name"]: run for run in baseline.get("runs", [])}
    failures: List[str] = []
    print(f"--- comparison vs {baseline_path} ---")
    for run in payload["runs"]:  # type: ignore[union-attr]
        name = run["name"]
        base = baseline_runs.pop(name, None)
        if base is None:
            print(f"{name:>20}: new run (no baseline entry)")
            continue
        same_config = "config" in base and base["config"] == run["config"]
        base_rate = float(base.get("events_per_s", 0.0))
        rate = float(run["events_per_s"])
        delta = (rate / base_rate - 1.0) if base_rate > 0 else 0.0
        note = "" if same_config else "  [config differs: rate advisory only]"
        print(
            f"{name:>20}: {base_rate:>12,.1f} -> {rate:>12,.1f} events/s "
            f"({delta:+7.1%}){note}"
        )
        if same_config and int(base["events"]) != int(run["events"]):
            failures.append(
                f"{name}: event count {base['events']} -> {run['events']} "
                "with identical config (determinism regression)"
            )
    for name in baseline_runs:
        print(f"{name:>20}: present in baseline only (run removed?)")
    if failures:
        print("EVENT-COUNT MISMATCH (hard failure):")
        for line in failures:
            print(f"  {line}")
        return 1
    print("event counts match on every comparable run (wall clock is advisory)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes (~seconds)")
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_kernel.json"),
        help="Output JSON path (default: BENCH_kernel.json at the repo root)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="Previous output JSON to diff against (events/s advisory; "
        "event-count mismatch on identical configs fails)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmarks(quick=args.quick)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for run in payload["runs"]:  # type: ignore[union-attr]
        print(
            f"{run['name']:>20}: {run['events']:>8} events in {run['wall_s']:>9.4f}s "
            f"({run['events_per_s']:>12.1f} events/s)"
        )
    print(f"wrote {args.output}")
    if args.baseline:
        return compare_to_baseline(payload, args.baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
