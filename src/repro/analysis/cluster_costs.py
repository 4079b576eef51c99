"""Cluster-cost experiment: fleet size x placement policy x keep-alive, co-simulated.

The paper's provider-side cost arguments (§2.2, §3.3) connect three knobs the
earlier per-layer experiments could only study in isolation: how many
functions share the cluster, how their sandboxes are packed onto hosts, and
how long keep-alive pins idle capacity.  This experiment sweeps all three
through the :mod:`repro.sim.sweep` orchestrator; each grid point runs a full
:class:`~repro.cluster.cosim.ClusterSimulator` co-simulation (every function's
platform simulator, the event-driven fleet, and the live cost meter in one
event loop) and reports fleet utilisation next to the user-side invoice.

Every scenario's seed derives from the base seed and the grid point identity,
so sequential and parallel sweeps produce identical rows.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.sim.results import ResultStore

__all__ = ["cluster_point", "cluster_cost_sweep", "DEFAULT_AXES"]

#: Default sweep axes: fleet size (deployed functions) x placement policy x
#: keep-alive window (seconds, scales the platform preset's window).
DEFAULT_AXES: Dict[str, Sequence[object]] = {
    "num_functions": (4, 8),
    "placement_policy": ("first_fit", "best_fit", "worst_fit"),
    "keep_alive_s": (60.0, 300.0),
}


def cluster_point(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    """Sweep runner: one cluster co-simulation grid point.

    Expected params: ``num_functions``, ``placement_policy``
    (``first_fit`` | ``best_fit`` | ``worst_fit``), ``keep_alive_s`` (the
    swept keep-alive window; the preset's window is rescaled so its max
    equals this value), and optionally ``platform`` (preset name, default
    ``gcp_run_like``), ``billing`` (billing-model name, default
    ``gcp_run_request``), ``workload`` (catalog name, default ``pyaes``),
    ``rps_per_function``, ``duration_s``, ``arrival_process``,
    ``host_vcpus``, ``host_memory_gb``, ``sample_interval_s``,
    ``feedback`` (``off`` | ``on``, default ``off``: close the state loop so
    admission outcomes and scheduler throttling shape the
    ``failed_requests`` / ``latency_inflation`` columns), and ``retry``
    (``off`` | ``on``: re-inject failed requests through the client retry
    loop, tunable via the ``retry_*`` params of
    :meth:`repro.sim.retry.RetryPolicy.from_params`; rows then gain the
    retry columns, and when the param is absent entirely rows stay
    byte-identical to the pre-retry output).

    Tenancy params (:func:`repro.tenancy.model.resolve_tenants`):
    ``tenants`` (``off`` | an integer tenant count) plus the
    ``tenant_credit_capacity`` / ``tenant_credit_refill_per_s`` /
    ``tenant_request_cost`` / ``tenant_on_exhausted`` /
    ``tenant_max_queued`` / ``tenant_slo_latency_s`` knobs.  An integer
    turns on credit-metered admission (deployments assigned round-robin)
    and adds the per-tenant fairness/SLO columns; when the param is absent
    entirely rows stay byte-identical to the pre-tenancy output.

    Observability params (all optional, all passive): ``trace_out``
    (request-span export path; ``.jsonl`` for span lines, anything else for
    Chrome ``trace_event`` JSON), ``telemetry_out`` (sampled time-series
    CSV), ``profile_out`` (kernel profile JSON).  Any of them attaches a
    :class:`repro.obs.Observability` to the run; rows stay byte-identical
    either way.

    Imports stay inside the function so the runner is resolvable by dotted
    path in sweep worker processes without import cycles.
    """
    from repro.analysis.scenario import run_cluster_scenario
    from repro.cluster.host import HostSpec
    from repro.cluster.placement import PlacementPolicy

    num_functions = int(params["num_functions"])  # type: ignore[arg-type]
    policy = PlacementPolicy(str(params["placement_policy"]))
    host_spec = HostSpec(
        vcpus=float(params.get("host_vcpus", 16.0)),  # type: ignore[arg-type]
        memory_gb=float(params.get("host_memory_gb", 64.0)),  # type: ignore[arg-type]
    )
    # No ``zones``: the fleet special-cases an unnamed single default zone.
    return run_cluster_scenario(
        params,
        seed,
        head={"num_functions": num_functions, "placement_policy": policy.value},
        fleet={"host_spec": host_spec, "policy": policy},
        num_functions=num_functions,
        duration_s=float(params.get("duration_s", 60.0)),  # type: ignore[arg-type]
        keep_alive_s=float(params["keep_alive_s"]),  # type: ignore[arg-type]
    )


def cluster_cost_sweep(
    axes: Optional[Mapping[str, Sequence[object]]] = None,
    common: Optional[Mapping[str, object]] = None,
    base_seed: int = 2026,
    first_point_extra: Optional[Mapping[str, object]] = None,
    backend: Optional[object] = None,
    checkpoint: Optional[str] = None,
) -> ResultStore:
    """Run the cluster-cost grid through the sweep orchestrator.

    ``backend`` / ``checkpoint`` pass through to
    :func:`repro.sim.sweep.run_sweep`: any execution backend (including the
    multi-node ``socket-queue`` server) and an optional JSONL journal that
    makes the sweep kill/resume-safe.  Rows are byte-identical across all.

    ``first_point_extra`` merges extra params into the *first* grid point
    only -- how the CLI attaches ``trace_out``/``telemetry_out`` artifact
    paths to a single representative point.  Seeds derive from grid
    identity, not params, so the rows are unchanged.
    """
    from repro.analysis.scenario import run_cluster_grid

    return run_cluster_grid(
        "repro.analysis.cluster_costs:cluster_point",
        axes or DEFAULT_AXES,
        common=common,
        base_seed=base_seed,
        first_point_extra=first_point_extra,
        backend=backend,
        checkpoint=checkpoint,
    )


def cluster_costs_experiment() -> List[Dict[str, object]]:
    """The registry entry point: a small default grid, sequential."""
    axes = {
        "num_functions": (4, 8),
        "placement_policy": ("first_fit", "best_fit", "worst_fit"),
        "keep_alive_s": (60.0,),
    }
    store = cluster_cost_sweep(axes=axes, common={"duration_s": 30.0})
    return store.rows
