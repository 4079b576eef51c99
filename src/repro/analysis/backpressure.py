"""Backpressure experiment: admission-queue depth x placement policy x heterogeneity.

PR 2's fleet dropped every sandbox it could not place.  This experiment
closes that loop and measures what the paper's provider-side arguments
(§2.2/§3.3) imply at the cluster boundary: when the fleet is capacity-bound,
how much of the offered load can a bounded admission queue absorb, how long
do queued sandboxes wait, and how do placement policy and host heterogeneity
move both the provider's spend and the user's bill?

Each grid point runs one full :class:`~repro.cluster.cosim.ClusterSimulator`
co-simulation on a deliberately *small* fleet (so cold starts outrun
capacity): every function's platform simulator, the multi-zone fleet with
admission backpressure, the live cost meter, and the CPU-bandwidth scheduler
engine (:class:`~repro.sched.engine.SchedulerSim`) all share one kernel.
Every scenario's seed derives from the base seed and the grid point
identity, so sequential and parallel sweeps produce identical rows.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.results import ResultStore
from repro.sim.rng import named_generator

__all__ = [
    "backpressure_point",
    "backpressure_sweep",
    "retry_amplification_sweep",
    "DEFAULT_AXES",
    "HETEROGENEITIES",
    "RETRY_AXES",
]

#: The fleet shapes a grid point can take (the ``heterogeneity`` param).
HETEROGENEITIES: Tuple[str, ...] = ("homogeneous", "two_tier")

#: Default sweep axes: admission-queue bound x placement policy x fleet
#: heterogeneity ("homogeneous" = one zone, "two_tier" = a cheap economy
#: zone next to a pricier premium zone the COST_FIT policy can arbitrage).
DEFAULT_AXES: Dict[str, Sequence[object]] = {
    "queue_depth": (0, 4, 32),
    "placement_policy": ("best_fit", "cost_fit"),
    "heterogeneity": HETEROGENEITIES,
}

#: Retry-amplification axes: the same capacity-bound points with client
#: retries off vs on, so the ``retry_amplification`` column isolates how much
#: extra load failed-and-retried requests push back into the fleet at each
#: queue bound.  Meant to run with ``feedback="on"`` (see
#: :func:`retry_amplification_sweep`): without the closed loop nothing fails,
#: so nothing retries.
RETRY_AXES: Dict[str, Sequence[object]] = {
    "queue_depth": (0, 4),
    "placement_policy": ("best_fit",),
    "heterogeneity": ("homogeneous",),
    "retry": ("off", "on"),
}


def _zones(heterogeneity: str, host_vcpus: float, host_memory_gb: float, max_hosts: int):
    """The fleet partitions of one grid point (imports deferred for workers)."""
    from repro.cluster.fleet import ZoneConfig
    from repro.cluster.host import HostSpec

    if heterogeneity == "homogeneous":
        return (
            ZoneConfig(
                name="default",
                host_spec=HostSpec(vcpus=host_vcpus, memory_gb=host_memory_gb),
                max_hosts=max_hosts,
            ),
        )
    if heterogeneity == "two_tier":
        # An economy tier priced at the default unit rates next to a premium
        # tier with twice the shape at a 5x price: cost-aware placement
        # should fill economy hosts first and strand less premium capacity.
        # The two zones *split* the host cap (ceil to economy), so a two_tier
        # point never opens more hosts than the homogeneous one.
        economy = HostSpec(vcpus=host_vcpus, memory_gb=host_memory_gb, price_class="economy")
        premium = HostSpec(
            vcpus=host_vcpus * 2.0,
            memory_gb=host_memory_gb * 2.0,
            hourly_cost_usd=economy.hourly_cost_usd * 5.0,
            price_class="premium",
        )
        split = (max_hosts + 1) // 2
        return (
            ZoneConfig(name="economy", host_spec=economy, max_hosts=split),
            ZoneConfig(name="premium", host_spec=premium, max_hosts=max_hosts - split),
        )
    raise ValueError(f"unknown heterogeneity {heterogeneity!r}; choose from {HETEROGENEITIES}")


def _scheduler(seed: int, horizon_s: float):
    """A small deterministic CPU-bandwidth scheduling workload for the co-sim.

    Task arrivals and compute demands draw from a named stream, so they
    depend only on (seed, "sched") -- never on sweep ordering.
    """
    from repro.sched.engine import SchedulerSim
    from repro.sched.presets import scheduler_config_for
    from repro.sched.task import SimTask, TaskPhase

    rng = named_generator(seed, "sched")
    arrivals = sorted(float(t) for t in rng.uniform(0.0, horizon_s * 0.5, size=6))
    demands = rng.uniform(0.05, 0.4, size=6)
    tasks = [
        SimTask(
            phases=[TaskPhase.compute(float(demands[index]))],
            arrival_s=arrivals[index],
            name=f"sched-task-{index:02d}",
        )
        for index in range(6)
    ]
    config = scheduler_config_for("aws_lambda", vcpu_fraction=0.5, horizon_s=horizon_s)
    return SchedulerSim(config, tasks)


def backpressure_point(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    """Sweep runner: one backpressure co-simulation grid point.

    Expected params: ``queue_depth``, ``placement_policy`` (any
    :class:`~repro.cluster.placement.PlacementPolicy` value, including
    ``cost_fit``), ``heterogeneity`` (``homogeneous`` | ``two_tier``), and
    optionally ``num_functions``, ``max_hosts`` (kept small so the fleet
    saturates), ``queue_discipline`` (``fifo`` | ``smallest_first``),
    ``platform`` (preset name), ``billing`` (billing-model name),
    ``workload``, ``rps_per_function``, ``duration_s``, ``keep_alive_s``
    (rescales the preset's keep-alive window; defaults to a third of the
    duration so evictions drain the queue mid-run), ``arrival_process``,
    ``host_vcpus``, ``host_memory_gb``, ``sample_interval_s``,
    ``with_scheduler`` (default true: co-simulate the sched engine), and
    ``feedback`` (``off`` | ``on``, default ``off``).  With feedback on the
    admission outcomes and scheduler throttling feed back into serving, so
    the ``failed_requests`` / ``latency_inflation`` columns report the
    user-visible cost of backpressure instead of zero.

    ``retry`` (``off`` | ``on``) adds the client retry loop on top of the
    closed feedback loop: failed requests are re-injected with exponential
    backoff (tunable via ``retry_max_attempts``, ``retry_base_backoff_s``,
    ``retry_backoff_multiplier``, ``retry_max_backoff_s``, ``retry_jitter``,
    ``retry_budget``) and the row gains the ``retried_requests`` /
    ``mean_attempts`` / ``gave_up_requests`` / ``retry_amplification``
    columns.  When the ``retry`` param is absent entirely the row is
    byte-identical to the pre-retry output.

    ``tenants`` (``off`` | an integer count, resolved through
    :func:`repro.tenancy.model.resolve_tenants` with the ``tenant_*``
    knobs) adds credit-metered multi-tenant admission over the same closed
    loop: rows gain the ``credit_denied_requests`` / ``jain_fairness`` /
    per-tenant columns, and when the param is absent entirely rows stay
    byte-identical to the pre-tenancy output.

    ``trace_out`` / ``telemetry_out`` / ``profile_out`` (file paths) attach
    the observability layer for this point and write its artifacts after the
    run: a Chrome-trace JSON (``.jsonl`` for raw span lines), the sampled
    telemetry series as CSV, and the kernel profile as JSON.  Observers only
    read the bus, so the returned row is byte-identical with or without them.

    Imports stay inside the function so the runner is resolvable by dotted
    path in sweep worker processes without import cycles.
    """
    from repro.analysis.scenario import run_cluster_scenario
    from repro.cluster.placement import PlacementPolicy

    queue_depth = int(params["queue_depth"])  # type: ignore[arg-type]
    policy = PlacementPolicy(str(params["placement_policy"]))
    heterogeneity = str(params["heterogeneity"])
    discipline = str(params.get("queue_discipline", "fifo"))
    duration_s = float(params.get("duration_s", 30.0))  # type: ignore[arg-type]
    zones = _zones(
        heterogeneity,
        float(params.get("host_vcpus", 2.0)),  # type: ignore[arg-type]
        float(params.get("host_memory_gb", 4.0)),  # type: ignore[arg-type]
        int(params.get("max_hosts", 2)),  # type: ignore[arg-type]
    )
    return run_cluster_scenario(
        params,
        seed,
        head={
            "queue_depth_bound": queue_depth,
            "placement_policy": policy.value,
            "heterogeneity": heterogeneity,
            "queue_discipline": discipline,
        },
        fleet={
            "policy": policy,
            "zones": zones,
            "queue_depth": queue_depth,
            "queue_discipline": discipline,
        },
        num_functions=int(params.get("num_functions", 6)),  # type: ignore[arg-type]
        duration_s=duration_s,
        # Defaults to a third of the duration so keep-alive expiries free
        # capacity mid-run and the admission queue drains.
        keep_alive_s=float(params.get("keep_alive_s", duration_s / 3.0)),  # type: ignore[arg-type]
        scheduler=_scheduler(seed, duration_s) if params.get("with_scheduler", True) else None,
    )


def backpressure_sweep(
    axes: Optional[Mapping[str, Sequence[object]]] = None,
    common: Optional[Mapping[str, object]] = None,
    base_seed: int = 2026,
    first_point_extra: Optional[Mapping[str, object]] = None,
    backend: Optional[object] = None,
    checkpoint: Optional[str] = None,
) -> ResultStore:
    """Run the backpressure grid through the sweep orchestrator.

    ``backend`` / ``checkpoint`` pass through to
    :func:`repro.sim.sweep.run_sweep`: any execution backend and an optional
    JSONL journal that makes the sweep kill/resume-safe.  Rows are
    byte-identical across all of them.

    ``first_point_extra`` merges extra params into the *first* grid point
    only -- how the CLI attaches ``trace_out``/``telemetry_out``/``profile_out``
    artifact paths to a single representative point without every worker racing to
    write the same files.  Scenario seeds derive from grid identity, not
    params, so the extra keys leave every row byte-identical.
    """
    from repro.analysis.scenario import run_cluster_grid

    return run_cluster_grid(
        "repro.analysis.backpressure:backpressure_point",
        axes or DEFAULT_AXES,
        common=common,
        base_seed=base_seed,
        first_point_extra=first_point_extra,
        backend=backend,
        checkpoint=checkpoint,
    )


def retry_amplification_sweep(
    axes: Optional[Mapping[str, Sequence[object]]] = None,
    common: Optional[Mapping[str, object]] = None,
    base_seed: int = 2026,
    backend: Optional[object] = None,
    checkpoint: Optional[str] = None,
) -> ResultStore:
    """The retry-amplification axis: retries off vs on over a saturated fleet.

    A thin preset over :func:`backpressure_sweep`: feedback defaults to
    ``"on"`` (requests must *fail* for clients to retry) on a
    single-concurrency platform (every excess request cold-starts its own
    sandbox, so fleet rejections deterministically fail requests).  Compare
    the ``retry == "on"`` rows' ``retry_amplification`` /
    ``gave_up_requests`` columns against their ``retry == "off"`` twins to
    read off the load amplification failed-and-retried requests cause.
    """
    merged: Dict[str, object] = {
        "feedback": "on",
        "platform": "aws_lambda_like",
        "billing": "aws_lambda",
    }
    merged.update(common or {})
    return backpressure_sweep(
        axes=dict(axes or RETRY_AXES),
        common=merged,
        base_seed=base_seed,
        backend=backend,
        checkpoint=checkpoint,
    )


def backpressure_experiment() -> List[Dict[str, object]]:
    """The registry entry point: a small default grid, sequential."""
    axes = {
        "queue_depth": (0, 16),
        "placement_policy": ("best_fit", "cost_fit"),
        "heterogeneity": HETEROGENEITIES,
    }
    store = backpressure_sweep(axes=axes, common={"duration_s": 20.0})
    return store.rows
