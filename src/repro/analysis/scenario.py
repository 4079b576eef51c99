"""The one cluster co-simulation scenario behind the cluster and backpressure sweeps.

:func:`repro.analysis.cluster_costs.cluster_point` and
:func:`repro.analysis.backpressure.backpressure_point` differ only in their
own axes, their fleet shape and whether the CPU-bandwidth scheduler rides
along.  Everything else -- the shared params (:class:`ClusterScenarioParams`),
the keep-alive rescale, the function population, the
:class:`~repro.cluster.cosim.ClusterSimulator` build and run, the
observability artifacts and the row tail -- lives here, once, next to the
one grid function both sweeps share.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Type

from repro.billing.catalog import PlatformName
from repro.cluster.cosim import FEEDBACK_MODES, ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.obs import ObsParams, write_obs_artifacts
from repro.platform.presets import PLATFORM_PRESETS, get_platform_preset
from repro.sim.arrivals import ARRIVAL_PROCESSES
from repro.sim.params import from_mapping
from repro.sim.results import ResultStore
from repro.sim.retry import RetryParams
from repro.sim.rng import named_generator
from repro.sim.sweep import build_grid, run_sweep
from repro.tenancy import TenantParams
from repro.traces.generator import HUAWEI_FLAVORS
from repro.workloads.functions import WORKLOAD_CATALOG, get_workload

__all__ = ["ClusterScenarioParams", "run_cluster_scenario", "run_cluster_grid"]


@dataclass(frozen=True)
class ClusterScenarioParams:
    """The params keys both cluster runners share, with their defaults.

    ``platform`` is a preset name, ``billing`` a billing-model name and
    ``workload`` a catalog name.  ``feedback="on"`` closes the state loop, so
    admission outcomes and scheduler throttling show in the
    ``failed_requests`` / ``latency_inflation`` columns.  The sections add
    the ``retry`` / ``retry_*`` keys (client retries and their columns), the
    ``tenants`` / ``tenant_*`` keys (credit-metered admission and the
    per-tenant columns) and the ``trace_out`` / ``telemetry_out`` /
    ``profile_out`` artifact paths (rows unchanged).
    """

    platform: str = field(default="gcp_run_like", metadata={"choices": PLATFORM_PRESETS})
    billing: str = field(default="gcp_run_request", metadata={"choices": PlatformName})
    workload: str = field(default="pyaes", metadata={"choices": WORKLOAD_CATALOG})
    rps_per_function: float = 2.0
    arrival_process: str = field(default="constant", metadata={"choices": ARRIVAL_PROCESSES})
    feedback: str = field(default="off", metadata={"choices": FEEDBACK_MODES})
    sample_interval_s: float = 10.0
    retries: RetryParams = field(default_factory=RetryParams)
    tenancy: TenantParams = field(default_factory=TenantParams)
    obs: ObsParams = field(default_factory=ObsParams)


def run_cluster_scenario(
    scenario: ClusterScenarioParams,
    seed: int,
    head: Mapping[str, object],
    fleet: Mapping[str, object],
    num_functions: int,
    duration_s: float,
    keep_alive_s: float,
    scheduler: Optional[object] = None,
) -> Dict[str, object]:
    """Build, run and summarise one cluster co-simulation grid point.

    ``head`` holds the runner's own leading row columns; ``fleet`` holds its
    :class:`~repro.cluster.fleet.FleetConfig` fields (``sample_interval_s``
    comes from ``scenario``).

    The row is ``head``, then ``keep_alive_s``, ``platform``, ``feedback``,
    ``seed``, ``retry`` and ``tenants`` (each only when its key is present),
    then the run summary minus ``policy`` and minus any key already in
    ``head``.
    """
    platform = get_platform_preset(scenario.platform)
    workload = get_workload(scenario.workload)
    obs = scenario.obs.observability()

    # Rescale the preset's keep-alive window so its max hits ``keep_alive_s``
    # (preserving the min/max ratio keeps the opportunistic ramp shape).  A
    # window shorter than the traffic duration is what makes backpressure
    # *drain*: keep-alive expiries free capacity mid-run.
    keep_alive = platform.keep_alive
    factor = keep_alive_s / keep_alive.max_keep_alive_s
    platform = dataclasses.replace(
        platform,
        keep_alive=dataclasses.replace(
            keep_alive,
            min_keep_alive_s=keep_alive.min_keep_alive_s * factor,
            max_keep_alive_s=keep_alive_s,
        ),
    )

    # Functions draw discrete Huawei-like flavors from a named stream, so the
    # population depends only on (seed, "flavors") -- not on sweep ordering.
    flavor_rng = named_generator(seed, "flavors")
    flavor_indices = flavor_rng.integers(0, len(HUAWEI_FLAVORS), size=num_functions)
    deployments: List[FunctionDeployment] = []
    for index in range(num_functions):
        vcpus, memory_gb = HUAWEI_FLAVORS[int(flavor_indices[index])]
        function = workload.to_function_config(vcpus, memory_gb, init_duration_s=1.0)
        function = dataclasses.replace(function, name=f"fn-{index:03d}")
        deployments.append(
            FunctionDeployment(
                function=function,
                platform=platform,
                rps=scenario.rps_per_function,
                duration_s=duration_s,
                arrival_process=scenario.arrival_process,
            )
        )

    simulator = ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            sample_interval_s=scenario.sample_interval_s,
            **fleet,  # type: ignore[arg-type]
        ),
        billing_platform=scenario.billing,
        scheduler=scheduler,
        seed=seed,
        feedback=scenario.feedback,
        retry=scenario.retries.policy(),
        obs=obs,
        tenants=scenario.tenancy.configs(),
    )
    result = simulator.run()
    write_obs_artifacts(obs, scenario.obs)

    row: Dict[str, object] = dict(head)
    row.update(
        keep_alive_s=keep_alive_s, platform=platform.name, feedback=scenario.feedback, seed=seed
    )
    if scenario.retries.retry is not None:
        row["retry"] = scenario.retries.retry
    if scenario.tenancy.tenants is not None:
        row["tenants"] = scenario.tenancy.tenants
    summary = result.summary()
    summary.pop("policy", None)
    row.update((key, value) for key, value in summary.items() if key not in head)
    return row


def run_cluster_grid(
    runner: str,
    params_type: Type[object],
    axes: Mapping[str, Sequence[object]],
    common: Optional[Mapping[str, object]] = None,
    base_seed: int = 2026,
    first_point_extra: Optional[Mapping[str, object]] = None,
    backend: Optional[object] = None,
    checkpoint: Optional[str] = None,
) -> ResultStore:
    """Build ``runner``'s grid, parse every point into ``params_type``, then run it.

    The body of both public cluster sweeps (see
    :func:`repro.analysis.cluster_costs.cluster_cost_sweep` for the
    parameters).  A bad key or value anywhere in the grid raises
    :class:`~repro.sim.params.ScenarioParamError` before any point runs or
    any journal is written.  ``first_point_extra`` merges into the first
    grid point's params only; seeds derive from grid identity, so rows are
    unchanged.
    """
    scenarios = build_grid(runner=runner, axes=dict(axes), common=common, base_seed=base_seed)
    if first_point_extra:
        scenarios[0] = dataclasses.replace(
            scenarios[0], params={**scenarios[0].params, **first_point_extra}
        )
    for scenario in scenarios:
        from_mapping(params_type, scenario.params)
    return run_sweep(scenarios, backend=backend, checkpoint=checkpoint)
