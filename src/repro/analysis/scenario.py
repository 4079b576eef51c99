"""The one cluster co-simulation scenario behind the cluster and backpressure sweeps.

:func:`repro.analysis.cluster_costs.cluster_point` and
:func:`repro.analysis.backpressure.backpressure_point` differ only in their
own axes, their fleet shape and whether the CPU-bandwidth scheduler rides
along.  Everything else -- the shared params, the keep-alive rescale, the
function population, the :class:`~repro.cluster.cosim.ClusterSimulator`
build and run, the observability artifacts and the row tail -- lives here,
once, next to the one grid function both sweeps share.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.obs import obs_from_params, write_obs_artifacts
from repro.platform.presets import get_platform_preset
from repro.sim.results import ResultStore
from repro.sim.retry import resolve_retry
from repro.sim.rng import named_generator
from repro.sim.sweep import build_grid, run_sweep
from repro.tenancy import resolve_tenants
from repro.traces.generator import HUAWEI_FLAVORS
from repro.workloads.functions import get_workload

__all__ = ["run_cluster_scenario", "run_cluster_grid"]


def run_cluster_scenario(
    params: Mapping[str, object],
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
    is read from ``params`` here).  This function reads the params both
    runners share: ``platform`` (default ``gcp_run_like``), ``billing``
    (default ``gcp_run_request``), ``workload`` (default ``pyaes``),
    ``rps_per_function`` (default 2), ``arrival_process`` (default
    ``constant``), ``feedback`` (default ``off``), ``sample_interval_s``
    (default 10), plus ``retry`` / ``retry_*``
    (:func:`repro.sim.retry.resolve_retry`), ``tenants`` / ``tenant_*``
    (:func:`repro.tenancy.model.resolve_tenants`) and ``trace_out`` /
    ``telemetry_out`` / ``profile_out``
    (:func:`repro.obs.obs_from_params`).

    The row is ``head``, then ``keep_alive_s``, ``platform``, ``feedback``,
    ``seed``, ``retry`` and ``tenants`` (each only when its param is
    present), then the run summary minus ``policy`` and minus any key
    already in ``head``.
    """
    platform = get_platform_preset(str(params.get("platform", "gcp_run_like")))
    workload = get_workload(str(params.get("workload", "pyaes")))
    rps = float(params.get("rps_per_function", 2.0))  # type: ignore[arg-type]
    arrival_process = str(params.get("arrival_process", "constant"))
    feedback = str(params.get("feedback", "off"))
    retry_mode, retry_policy = resolve_retry(params)
    tenants_mode, tenant_configs = resolve_tenants(params)
    obs = obs_from_params(params)

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
                rps=rps,
                duration_s=duration_s,
                arrival_process=arrival_process,
            )
        )

    simulator = ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            sample_interval_s=float(params.get("sample_interval_s", 10.0)),  # type: ignore[arg-type]
            **fleet,  # type: ignore[arg-type]
        ),
        billing_platform=str(params.get("billing", "gcp_run_request")),
        scheduler=scheduler,
        seed=seed,
        feedback=feedback,
        retry=retry_policy,
        obs=obs,
        tenants=tenant_configs,
    )
    result = simulator.run()
    write_obs_artifacts(obs, params)

    row: Dict[str, object] = dict(head)
    row.update(keep_alive_s=keep_alive_s, platform=platform.name, feedback=feedback, seed=seed)
    if retry_mode is not None:
        row["retry"] = retry_mode
    if tenants_mode is not None:
        row["tenants"] = tenants_mode
    summary = result.summary()
    summary.pop("policy", None)
    row.update((key, value) for key, value in summary.items() if key not in head)
    return row


def run_cluster_grid(
    runner: str,
    axes: Mapping[str, Sequence[object]],
    common: Optional[Mapping[str, object]] = None,
    base_seed: int = 2026,
    first_point_extra: Optional[Mapping[str, object]] = None,
    backend: Optional[object] = None,
    checkpoint: Optional[str] = None,
) -> ResultStore:
    """Build ``runner``'s grid and run it through :func:`repro.sim.sweep.run_sweep`.

    The body of both public cluster sweeps (see
    :func:`repro.analysis.cluster_costs.cluster_cost_sweep` for the
    parameters).  ``first_point_extra`` merges into the first grid point's
    params only; seeds derive from grid identity, so rows are unchanged.
    """
    scenarios = build_grid(runner=runner, axes=dict(axes), common=common, base_seed=base_seed)
    if first_point_extra:
        scenarios[0] = dataclasses.replace(
            scenarios[0], params={**scenarios[0].params, **first_point_extra}
        )
    return run_sweep(scenarios, backend=backend, checkpoint=checkpoint)
