"""Sandbox placement: bin-packing policies over a host fleet."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.host import Host, HostSpec
from repro.numeric import fold

__all__ = [
    "SandboxRequirement",
    "PlacementPolicy",
    "PlacementResult",
    "choose_host",
    "place_sandboxes",
]


@dataclass(frozen=True)
class SandboxRequirement:
    """Resource demand of one sandbox to place."""

    sandbox_id: str
    vcpus: float
    memory_gb: float

    def __post_init__(self) -> None:
        if self.vcpus <= 0 or self.memory_gb <= 0:
            raise ValueError("sandbox requirements must be positive")


class PlacementPolicy(str, enum.Enum):
    """Bin-packing heuristics for sandbox placement.

    ``COST_FIT`` is the cost-aware policy: among feasible hosts it minimises
    the host's hourly price (``HostSpec.hourly_cost_usd``) first, breaking
    price ties best-fit-style (smallest leftover) and breaking *those* ties
    by host open order -- a total, deterministic order, so equal-price hosts
    always resolve the same way across runs and processes.
    """

    FIRST_FIT = "first_fit"
    BEST_FIT = "best_fit"
    WORST_FIT = "worst_fit"
    COST_FIT = "cost_fit"


@dataclass
class PlacementResult:
    """Outcome of placing a sandbox population on a host fleet."""

    hosts: List[Host]
    unplaced: List[SandboxRequirement]

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    @property
    def num_placed(self) -> int:
        return sum(len(host.sandboxes) for host in self.hosts)

    @property
    def deployment_density(self) -> float:
        """Sandboxes per host (the provider-cost metric §2.2 refers to)."""
        if not self.hosts:
            return 0.0
        return self.num_placed / len(self.hosts)

    @property
    def mean_cpu_utilization(self) -> float:
        if not self.hosts:
            return 0.0
        return fold(h.cpu_utilization for h in self.hosts) / len(self.hosts)

    @property
    def mean_memory_utilization(self) -> float:
        if not self.hosts:
            return 0.0
        return fold(h.memory_utilization for h in self.hosts) / len(self.hosts)

    @property
    def stranded_vcpus(self) -> float:
        return fold(h.stranded_capacity()["vcpus"] for h in self.hosts)

    @property
    def stranded_memory_gb(self) -> float:
        return fold(h.stranded_capacity()["memory_gb"] for h in self.hosts)

    def summary(self) -> dict:
        return {
            "num_hosts": self.num_hosts,
            "num_placed": self.num_placed,
            "deployment_density": self.deployment_density,
            "mean_cpu_utilization": self.mean_cpu_utilization,
            "mean_memory_utilization": self.mean_memory_utilization,
            "stranded_vcpus": self.stranded_vcpus,
            "stranded_memory_gb": self.stranded_memory_gb,
            "unplaced": len(self.unplaced),
        }


def _leftover(host: Host, requirement: SandboxRequirement) -> float:
    """Normalised capacity left on ``host`` after placing ``requirement``."""
    leftover_cpu = (host.free_vcpus - requirement.vcpus) / host.spec.vcpus
    leftover_memory = (host.free_memory_gb - requirement.memory_gb) / host.spec.memory_gb
    return leftover_cpu + leftover_memory


def _score(host: Host, requirement: SandboxRequirement, policy: PlacementPolicy) -> Tuple[float, ...]:
    """Lower score is preferred.  Scores measure leftover capacity after placement."""
    if policy is PlacementPolicy.BEST_FIT:
        return (_leftover(host, requirement),)
    if policy is PlacementPolicy.WORST_FIT:
        return (-_leftover(host, requirement),)
    if policy is PlacementPolicy.COST_FIT:
        # Cheapest feasible host first; price ties resolve best-fit so cheap
        # hosts fill up before another expensive one is touched.
        return (host.spec.hourly_cost_usd, _leftover(host, requirement))
    return (0.0,)  # FIRST_FIT: order of the host list decides


def choose_host(
    hosts: Sequence[Host],
    requirement: SandboxRequirement,
    policy: PlacementPolicy,
) -> Optional[Host]:
    """The host the policy places ``requirement`` on, or ``None`` if nothing fits.

    Deterministic across runs and policies: score ties are broken by position
    in ``hosts`` (the order hosts were opened), never by dict/hash order.
    The :class:`repro.cluster.fleet.Fleet` calls it for every admission and
    opens a new host itself when it returns ``None``.
    """
    candidates = [
        (index, host)
        for index, host in enumerate(hosts)
        if host.fits(requirement.vcpus, requirement.memory_gb)
    ]
    if not candidates:
        return None
    if policy is PlacementPolicy.FIRST_FIT:
        return candidates[0][1]
    return min(candidates, key=lambda pair: (_score(pair[1], requirement, policy), pair[0]))[1]


def place_sandboxes(
    requirements: Sequence[SandboxRequirement],
    host_spec: Optional[HostSpec] = None,
    policy: PlacementPolicy = PlacementPolicy.BEST_FIT,
    max_hosts: int = 100_000,
) -> PlacementResult:
    """Pack sandboxes onto hosts, opening a new host whenever nothing fits.

    Hosts are homogeneous (``host_spec``); a sandbox larger than a whole host
    is reported as unplaced rather than raising.  The packing is the
    event-driven :class:`~repro.cluster.fleet.Fleet` admitting each
    requirement at t=0, so the static and live placements cannot diverge.
    """
    from repro.cluster.fleet import Fleet, FleetConfig  # fleet imports this module

    fleet = Fleet(FleetConfig(host_spec or HostSpec(), policy, max_hosts, sample_interval_s=None))
    unplaced = [
        requirement
        for requirement in requirements
        if fleet.admit(0.0, requirement.sandbox_id, requirement.vcpus, requirement.memory_gb) is None
    ]
    return PlacementResult(hosts=fleet.hosts, unplaced=unplaced)
