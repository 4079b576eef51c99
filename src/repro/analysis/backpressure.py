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

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.scenario import ClusterScenarioParams, run_cluster_grid, run_cluster_scenario
from repro.cluster.fleet import QUEUE_DISCIPLINES, ZoneConfig
from repro.cluster.host import HostSpec
from repro.cluster.placement import PlacementPolicy
from repro.sim.params import from_mapping
from repro.sim.results import ResultStore
from repro.sim.rng import named_generator

__all__ = [
    "BackpressurePointParams",
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
    """The fleet partitions of one grid point (``heterogeneity`` is parsed)."""
    if heterogeneity == "homogeneous":
        return (
            ZoneConfig(
                name="default",
                host_spec=HostSpec(vcpus=host_vcpus, memory_gb=host_memory_gb),
                max_hosts=max_hosts,
            ),
        )
    # "two_tier": an economy tier priced at the default unit rates next to a
    # premium tier with twice the shape at a 5x price: cost-aware placement
    # should fill economy hosts first and strand less premium capacity.  The
    # two zones *split* the host cap (ceil to economy), so a two_tier point
    # never opens more hosts than the homogeneous one.
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


@dataclass(frozen=True)
class BackpressurePointParams:
    """The params keys of :func:`backpressure_point`, with their defaults.

    The fleet is kept small (``max_hosts``) so it saturates; ``keep_alive_s``
    defaults to a third of ``duration_s``, so evictions drain the queue
    mid-run; ``with_scheduler`` co-simulates the CPU-bandwidth scheduler.
    """

    queue_depth: int
    placement_policy: str = field(metadata={"choices": PlacementPolicy})
    heterogeneity: str = field(metadata={"choices": HETEROGENEITIES})
    queue_discipline: str = field(default="fifo", metadata={"choices": QUEUE_DISCIPLINES})
    num_functions: int = 6
    max_hosts: int = 2
    duration_s: float = 30.0
    keep_alive_s: Optional[float] = None
    host_vcpus: float = 2.0
    host_memory_gb: float = 4.0
    with_scheduler: bool = True
    scenario: ClusterScenarioParams = field(default_factory=ClusterScenarioParams)


def backpressure_point(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    """Sweep runner: one backpressure co-simulation grid point.

    Its keys, defaults and allowed values are the fields of
    :class:`BackpressurePointParams`; what the shared keys add to the row is
    described on :class:`~repro.analysis.scenario.ClusterScenarioParams`.
    """
    point = from_mapping(BackpressurePointParams, params)
    policy = PlacementPolicy(point.placement_policy)
    zones = _zones(point.heterogeneity, point.host_vcpus, point.host_memory_gb, point.max_hosts)
    return run_cluster_scenario(
        point.scenario,
        seed,
        head={
            "queue_depth_bound": point.queue_depth,
            "placement_policy": policy.value,
            "heterogeneity": point.heterogeneity,
            "queue_discipline": point.queue_discipline,
        },
        fleet={
            "policy": policy,
            "zones": zones,
            "queue_depth": point.queue_depth,
            "queue_discipline": point.queue_discipline,
        },
        num_functions=point.num_functions,
        duration_s=point.duration_s,
        keep_alive_s=(
            point.keep_alive_s if point.keep_alive_s is not None else point.duration_s / 3.0
        ),
        scheduler=_scheduler(seed, point.duration_s) if point.with_scheduler else None,
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

    The parameters are those of
    :func:`repro.analysis.cluster_costs.cluster_cost_sweep`.
    """
    return run_cluster_grid(
        "repro.analysis.backpressure:backpressure_point",
        BackpressurePointParams,
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
