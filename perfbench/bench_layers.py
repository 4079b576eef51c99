"""The traced run: per-layer self time, counts and ratios for one workload.

Repetitions cycle through three modes until the time budget is spent:

- ``plain``: untraced, exactly as the timed runs measure it;
- ``traced``: the same repetition inside :func:`bench_trace.instrument`,
  under one root span;
- ``observed`` (``stream_steady`` only): the ``Observability()`` bundle the
  CLI attaches, to price the observers the timed runs leave off.

Every repetition is checked against the run's first one, so tracing and
observing are proven not to change simulated outputs.  Per-layer values are
medians over the traced repetitions.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List, Tuple

import bench_trace as bt

#: Layer names as in the benchmark's layer -> metric -> workload map.
LAYERS = (
    "sim.kernel", "sim.events", "sim.arrivals", "platform.invoker", "platform.sandbox",
    "platform.autoscaler", "cluster.fleet", "cluster.placement", "billing.meter",
    "billing.calculator", "billing.inflation", "traces.generator", "tenancy.admission",
    "sim.retry", "sched.engine", "sim.sweep", "sim.checkpoint",
)

#: Units of the per-layer values that are times (kept in the report only).
TIME_UNITS = ("s", "ns", "sim_s")

#: Unattributed time must stay below this share of the traced wall time.
MAX_RESIDUAL_SHARE = 0.05


def _traced_rep(runner, recorder: bt.SpanRecorder):
    """One repetition inside the instrumentation and a root span."""
    def timed():
        with bt.instrument(recorder, sweep=runner.name == "sweep_grid"):
            return recorder.wrap(bt.ROOT, runner.rep)()

    rep, factor = runner.scaled(timed)
    return runner.checked_rep(rep), factor


def layer_values(rep, recorder: bt.SpanRecorder) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced repetition, as ``name -> (value, unit)``."""
    rollup = recorder.rollup()
    layers = bt.by_layer(rollup)
    tallies = recorder.tallies
    counters = rep.counters
    traced_wall = rollup[bt.ROOT]["total_s"]

    def spans(label: str) -> float:
        return float(rollup.get(label, {}).get("spans", 0))

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    events = tallies.get("sim.kernel.events", 0.0)
    publishes = spans("sim.events:EventBus.publish")
    routes = tallies.get("platform.invoker.routes", 0.0)
    advances = spans("platform.sandbox:Sandbox.advance")
    admits = spans("cluster.fleet:Fleet.admit")
    placements = spans("cluster.placement:choose_host")
    completions = counters.get("completions", 0.0)
    bills = spans("billing.calculator:BillingCalculator.bill")
    values: Dict[str, Tuple[float, str]] = {
        "sim.kernel.events": (events, "count"),
        "sim.kernel.process_dispatches": (
            sum(s["spans"] for label, s in rollup.items() if label.endswith(".handle")), "count"),
        "sim.kernel.ns_per_event": (ratio(self_s("sim.kernel"), events) * 1e9, "ns"),
        "sim.events.publishes": (publishes, "count"),
        "sim.events.publishes_per_event": (ratio(publishes, events), "ratio"),
        "sim.arrivals.chunks": (spans("sim.arrivals:ArrivalStream.push_next_chunk"), "count"),
        "platform.invoker.routes": (routes, "count"),
        "platform.invoker.sandboxes_per_route": (
            ratio(tallies.get("platform.invoker.sandboxes_scanned", 0.0), routes), "ratio"),
        "platform.sandbox.advance_calls": (advances, "count"),
        "platform.sandbox.requests_per_advance": (
            ratio(tallies.get("platform.sandbox.requests_advanced", 0.0), advances), "ratio"),
        "platform.autoscaler.ticks": (
            spans("platform.autoscaler:AutoscalerProcess.handle"), "count"),
        "cluster.fleet.admits": (admits, "count"),
        "cluster.fleet.admit_success_ratio": (
            ratio(tallies.get("cluster.fleet.admitted_direct", 0.0), admits), "ratio"),
        "cluster.fleet.queue_wait_s": (counters.get("fleet_queue_wait_s", 0.0), "sim_s"),
        "cluster.placement.calls": (placements, "count"),
        "cluster.placement.hosts_scanned": (
            tallies.get("cluster.placement.hosts_scanned", 0.0), "count"),
        "billing.meter.completions": (completions, "count"),
        "billing.meter.ns_per_completion": (ratio(self_s("billing.meter"), completions) * 1e9,
                                            "ns"),
        "billing.calculator.bills": (bills, "count"),
        "billing.calculator.ns_per_bill": (ratio(self_s("billing.calculator"), bills) * 1e9, "ns"),
        "billing.inflation.records": (counters.get("analyzed", 0.0), "count"),
        "traces.generator.records": (counters.get("records", 0.0), "count"),
        "tenancy.admission.admits": (spans("tenancy.admission:AdmissionController.admit"),
                                     "count"),
        "tenancy.admission.admitted_ratio": (
            ratio(counters.get("tenancy_admitted", 0.0), counters.get("tenancy_decisions", 0.0)),
            "ratio"),
        "tenancy.admission.credit_releases": (
            spans("tenancy.admission:AdmissionController._handle_release"), "count"),
        "sim.retry.failures_seen": (spans("sim.retry:RetryLoop._on_failed"), "count"),
        "sim.retry.retries": (counters.get("retries", 0.0), "count"),
        "sim.retry.amplification": (
            ratio(counters.get("arrivals", 0.0), counters.get("organic_arrivals", 0.0)), "ratio"),
        "sched.engine.polls": (spans("sched.engine:SchedulerSim.next_event_time"), "count"),
        "sim.checkpoint.records": (spans("sim.checkpoint:SweepJournal.record"), "count"),
        "sim.checkpoint.journal_record_s": (
            ratio(self_s("sim.checkpoint"), spans("sim.checkpoint:SweepJournal.record")), "s"),
    }
    values.update(_sweep_values(rep))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_s(layer), "s")
        values[f"{layer}.self_share"] = (self_s(layer) / traced_wall, "share")
    listed = sum(self_s(layer) for layer in LAYERS)
    residual = self_s(bt.layer_of(bt.ROOT))
    values["other.self_share"] = ((traced_wall - listed - residual) / traced_wall, "share")
    values["trace.residual_share"] = (residual / traced_wall, "share")
    values["trace.wall_s"] = (traced_wall, "s")
    values["trace.spans"] = (float(len(recorder)), "count")
    return values


def _sweep_values(rep) -> Dict[str, Tuple[float, str]]:
    """Pool efficiency of a sweep repetition from its worker-side point timings."""
    workers = rep.workers
    if not workers:
        return {
            "sim.backends.point_overhead_s": (0.0, "s"),
            "sim.backends.worker_idle_share": (0.0, "share"),
            "sim.backends.pool_startup_s": (0.0, "s"),
            "sim.sweep.slowest_point_s": (0.0, "s"),
        }
    points = workers["points"]
    worker_count = rep.counters["workers"]
    span_s = workers["sweep_end"] - workers["sweep_start"]
    compute = [end - start for start, end in points]
    idle_s = worker_count * span_s - sum(compute)
    return {
        # Worker-seconds per point not spent simulating it: pool start-up,
        # pickling, result collection and the idle tail.
        "sim.backends.point_overhead_s": (idle_s / len(points), "s"),
        "sim.backends.worker_idle_share": (idle_s / (worker_count * span_s), "share"),
        "sim.backends.pool_startup_s": (
            min(start for start, _ in points) - workers["sweep_start"], "s"),
        # The slowest point sets the sweep's tail.
        "sim.sweep.slowest_point_s": (max(compute), "s"),
    }


def run(runner, seconds: float, min_reps: int) -> Dict[str, object]:
    """Plain/traced(/observed) repetitions for ``seconds``; the per-layer report."""
    modes = ["plain", "traced"] + (["observed"] if runner.name == "stream_steady" else [])
    totals: Dict[str, List[float]] = {mode: [] for mode in modes}
    traced: List[Dict[str, Tuple[float, str]]] = []
    labels: Dict[str, Dict[str, float]] = {}
    start = perf_counter()
    turn = 0
    while turn < min_reps * len(modes) or perf_counter() - start < seconds:
        mode = modes[turn % len(modes)]
        turn += 1
        if mode == "traced":
            recorder = bt.SpanRecorder()
            rep, factor = _traced_rep(runner, recorder)
            traced.append(layer_values(rep, recorder))
            labels = recorder.rollup()
        elif mode == "observed":
            from repro.obs import Observability

            rep, factor = runner.scaled_rep(obs=Observability())
        else:
            rep, factor = runner.scaled_rep()
        totals[mode].append((rep.setup_s + rep.wall_s) * factor)
    plain = statistics.median(totals["plain"])
    per_layer = {
        name: (statistics.median(rep[name][0] for rep in traced), unit)
        for name, (_, unit) in traced[0].items()
    }
    per_layer["trace.overhead_ratio"] = (statistics.median(totals["traced"]) / plain - 1.0,
                                         "ratio")
    per_layer["obs.attached_overhead_ratio"] = (
        statistics.median(totals["observed"]) / plain - 1.0 if "observed" in totals else 0.0,
        "ratio",
    )
    residual = per_layer["trace.residual_share"][0]
    if residual > MAX_RESIDUAL_SHARE:
        runner.record_check([f"unattributed time {residual:.1%} > {MAX_RESIDUAL_SHARE:.0%}"])
    top = sorted(labels.items(), key=lambda item: -item[1]["self_s"])[:25]
    # Times stay in the report: a layer that does no work on this workload
    # reads 0 s on every run, which is not a measurement.  Its share, counts
    # and ratios are the declared per-layer metrics.
    times = {name: value for name, value in per_layer.items() if value[1] in TIME_UNITS}
    return {
        "samples": {mode: len(values) for mode, values in totals.items()},
        "plain_wall_s": plain,
        "per_layer": {name: v for name, v in per_layer.items() if name not in times},
        "layer_times": {name: value for name, (value, _) in times.items()},
        "layers": {
            layer: {"self_s": per_layer[f"{layer}.self_s"][0],
                    "self_share": per_layer[f"{layer}.self_share"][0]}
            for layer in LAYERS if per_layer[f"{layer}.self_s"][0] > 0
        },
        "top_spans": [[label, stats] for label, stats in top],
    }
