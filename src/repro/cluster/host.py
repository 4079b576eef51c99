"""Hosts: fixed-capacity servers that sandboxes are packed onto."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["HostSpec", "Host", "DEFAULT_VCPU_HOUR_USD", "DEFAULT_GB_HOUR_USD"]

#: vCPUs or GB by which a sandbox may exceed a host's free capacity and still
#: fit: float residue of repeated place/release arithmetic.
_FIT_SLACK = 1e-9

#: Default provider-side capacity prices used when a spec does not set its own
#: hourly cost: roughly the on-demand VM decomposition the paper's Figure 1
#: compares serverless prices against (a 2 vCPU / 8 GB server at ~$0.096/h).
DEFAULT_VCPU_HOUR_USD = 0.024
DEFAULT_GB_HOUR_USD = 0.006


@dataclass(frozen=True)
class HostSpec:
    """Capacity and provider-side price of one host server shape.

    The default matches a common cloud server shape used for FaaS fleets:
    64 vCPUs and 256 GB of memory (a 1:4 vCPU:GB ratio).  ``hourly_cost_usd``
    is the provider-side cost of keeping one such host open; when left at
    ``None`` it is derived from capacity at the default unit prices, so
    homogeneous fleets keep working unchanged while heterogeneous fleets can
    declare distinct shapes (e.g. a cheap high-density shape next to a
    premium low-latency one) whose hourly cost the ``COST_FIT`` placement
    policy reads.  ``price_class`` is a descriptive label only: no invoice,
    placement or cost figure prices by it.
    """

    vcpus: float = 64.0
    memory_gb: float = 256.0
    hourly_cost_usd: float = None  # type: ignore[assignment]
    price_class: str = "standard"

    def __post_init__(self) -> None:
        if self.vcpus <= 0 or self.memory_gb <= 0:
            raise ValueError("host capacities must be positive")
        if self.hourly_cost_usd is None:
            object.__setattr__(
                self,
                "hourly_cost_usd",
                self.vcpus * DEFAULT_VCPU_HOUR_USD + self.memory_gb * DEFAULT_GB_HOUR_USD,
            )
        if self.hourly_cost_usd < 0:
            raise ValueError("hourly_cost_usd must be >= 0")


@dataclass
class Host:
    """One host with its current allocations."""

    spec: HostSpec
    name: str = ""
    #: Fleet partition this host belongs to ("" for single-zone fleets).
    zone: str = ""
    allocated_vcpus: float = field(default=0.0, init=False)
    allocated_memory_gb: float = field(default=0.0, init=False)
    sandboxes: List[str] = field(default_factory=list, init=False)

    @property
    def free_vcpus(self) -> float:
        return self.spec.vcpus - self.allocated_vcpus

    @property
    def free_memory_gb(self) -> float:
        return self.spec.memory_gb - self.allocated_memory_gb

    @property
    def cpu_utilization(self) -> float:
        return self.allocated_vcpus / self.spec.vcpus

    @property
    def memory_utilization(self) -> float:
        return self.allocated_memory_gb / self.spec.memory_gb

    def fits(self, vcpus: float, memory_gb: float) -> bool:
        """Whether a sandbox with the given allocation fits on this host."""
        return (
            vcpus <= self.free_vcpus + _FIT_SLACK
            and memory_gb <= self.free_memory_gb + _FIT_SLACK
        )

    def place(self, sandbox_id: str, vcpus: float, memory_gb: float) -> None:
        """Allocate a sandbox on this host (caller must have checked :meth:`fits`)."""
        if not self.fits(vcpus, memory_gb):
            raise ValueError(f"sandbox {sandbox_id} does not fit on {self.name}")
        self.allocated_vcpus += vcpus
        self.allocated_memory_gb += memory_gb
        self.sandboxes.append(sandbox_id)

    def remove(self, sandbox_id: str, vcpus: float, memory_gb: float) -> None:
        """Release a sandbox's allocation (the fleet layer's eviction path)."""
        if sandbox_id not in self.sandboxes:
            raise KeyError(f"sandbox {sandbox_id} is not placed on {self.name}")
        self.sandboxes.remove(sandbox_id)
        self.allocated_vcpus = max(self.allocated_vcpus - vcpus, 0.0)
        self.allocated_memory_gb = max(self.allocated_memory_gb - memory_gb, 0.0)

    def stranded_capacity(self) -> Dict[str, float]:
        """Capacity that cannot be used because the *other* resource is exhausted.

        If memory is (nearly) full but vCPUs remain, those vCPUs are stranded,
        and vice versa -- the fragmentation effect §2.2 attributes to
        unbalanced CPU:memory allocations.
        """
        stranded_cpu = 0.0
        stranded_memory = 0.0
        if self.memory_utilization >= 0.97 and self.cpu_utilization < 0.97:
            stranded_cpu = self.free_vcpus
        if self.cpu_utilization >= 0.97 and self.memory_utilization < 0.97:
            stranded_memory = self.free_memory_gb
        return {"vcpus": stranded_cpu, "memory_gb": stranded_memory}
