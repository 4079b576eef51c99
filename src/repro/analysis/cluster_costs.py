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

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.scenario import ClusterScenarioParams, run_cluster_grid, run_cluster_scenario
from repro.cluster.host import HostSpec
from repro.cluster.placement import PlacementPolicy
from repro.sim.params import from_mapping
from repro.sim.results import ResultStore

__all__ = ["ClusterPointParams", "cluster_point", "cluster_cost_sweep", "DEFAULT_AXES"]

#: Default sweep axes: fleet size (deployed functions) x placement policy x
#: keep-alive window (seconds, scales the platform preset's window).
DEFAULT_AXES: Dict[str, Sequence[object]] = {
    "num_functions": (4, 8),
    "placement_policy": ("first_fit", "best_fit", "worst_fit"),
    "keep_alive_s": (60.0, 300.0),
}


@dataclass(frozen=True)
class ClusterPointParams:
    """The params keys of :func:`cluster_point`, with their defaults.

    ``keep_alive_s`` is the swept keep-alive window: the preset's window is
    rescaled so its max equals it.
    """

    num_functions: int
    placement_policy: str = field(metadata={"choices": PlacementPolicy})
    keep_alive_s: float
    duration_s: float = 60.0
    host_vcpus: float = 16.0
    host_memory_gb: float = 64.0
    scenario: ClusterScenarioParams = field(default_factory=ClusterScenarioParams)


def cluster_point(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    """Sweep runner: one cluster co-simulation grid point.

    Its keys, defaults and allowed values are the fields of
    :class:`ClusterPointParams`; what the shared keys add to the row is
    described on :class:`~repro.analysis.scenario.ClusterScenarioParams`.
    """
    point = from_mapping(ClusterPointParams, params)
    policy = PlacementPolicy(point.placement_policy)
    # No ``zones``: the fleet special-cases an unnamed single default zone.
    return run_cluster_scenario(
        point.scenario,
        seed,
        head={"num_functions": point.num_functions, "placement_policy": policy.value},
        fleet={
            "host_spec": HostSpec(vcpus=point.host_vcpus, memory_gb=point.host_memory_gb),
            "policy": policy,
        },
        num_functions=point.num_functions,
        duration_s=point.duration_s,
        keep_alive_s=point.keep_alive_s,
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
    :func:`repro.sim.sweep.run_sweep`: any execution backend and an optional
    JSONL journal that makes the sweep kill/resume-safe.  Rows are
    byte-identical across all.

    ``first_point_extra`` merges extra params into the *first* grid point
    only -- how the CLI attaches ``trace_out``/``telemetry_out``/``profile_out``
    artifact paths to a single representative point without every worker
    racing to write the same files.  Seeds derive from grid identity, not
    params, so the rows are unchanged.  Every point is parsed before the
    first one runs (:func:`repro.analysis.scenario.run_cluster_grid`).
    """
    return run_cluster_grid(
        "repro.analysis.cluster_costs:cluster_point",
        ClusterPointParams,
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
