"""Request serving architectures and their per-request overhead (paper §3.2, Figures 7-8).

The paper distinguishes three mainstream serving architectures:

- **API long polling** (AWS Lambda): a runtime program inside the sandbox
  polls the runtime API in a blocking loop; measured overhead ~1.17 ms on
  average, stable across resource configurations.
- **HTTP server** (GCP, Azure, IBM, Knative): the function hosts an HTTP
  server behind a queue/ingress; measured overhead up to ~5.93 ms on average,
  and higher at small CPU allocations because header parsing, encoding and
  routing are CPU-bound.
- **Code/binary execution** (Cloudflare Workers): the engine executes the
  artifact directly; overhead below the provider's 0.01 ms reporting
  precision.

The overhead model produces a per-request latency adder with a configurable
mean, tail, and CPU-allocation sensitivity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ServingArchitecture", "ServingOverheadModel"]


class ServingArchitecture(str, enum.Enum):
    """The three mainstream serverless request serving architectures (Figure 7)."""

    API_POLLING = "api_polling"
    HTTP_SERVER = "http_server"
    CODE_EXECUTION = "code_execution"


@dataclass(frozen=True)
class ServingOverheadModel:
    """Per-request latency added by the serving layer.

    Attributes:
        architecture: which serving architecture the platform uses.
        base_overhead_s: mean overhead at a 1 vCPU allocation.
        jitter_fraction: lognormal-ish spread around the mean (p95 is roughly
            ``mean * (1 + 3 * jitter_fraction)``).
        cpu_sensitivity: how strongly the overhead grows as the allocation
            shrinks below 1 vCPU.  ``overhead = base * (1 + sensitivity *
            (1/vcpus - 1))`` for ``vcpus < 1``; architectures whose overhead is
            dominated by CPU-bound parsing (HTTP server) have a high value.
    """

    architecture: ServingArchitecture
    base_overhead_s: float
    jitter_fraction: float = 0.25
    cpu_sensitivity: float = 0.0

    def __post_init__(self) -> None:
        if self.base_overhead_s < 0:
            raise ValueError("base_overhead_s must be >= 0")
        if self.jitter_fraction < 0:
            raise ValueError("jitter_fraction must be >= 0")
        if self.cpu_sensitivity < 0:
            raise ValueError("cpu_sensitivity must be >= 0")

    # Default parameters measured in the paper (Figure 8).
    @classmethod
    def api_polling(cls) -> "ServingOverheadModel":
        """AWS-Lambda-like runtime API long polling: ~1.17 ms mean, CPU-insensitive."""
        return cls(ServingArchitecture.API_POLLING, base_overhead_s=1.17e-3, jitter_fraction=0.20,
                   cpu_sensitivity=0.05)

    @classmethod
    def http_server(cls, base_overhead_s: float = 4.0e-3) -> "ServingOverheadModel":
        """HTTP-server-based serving (GCP/Azure/Knative): several ms, CPU-sensitive."""
        return cls(ServingArchitecture.HTTP_SERVER, base_overhead_s=base_overhead_s,
                   jitter_fraction=0.35, cpu_sensitivity=0.12)

    @classmethod
    def code_execution(cls) -> "ServingOverheadModel":
        """Cloudflare-Workers-like direct code execution: near-zero overhead."""
        return cls(ServingArchitecture.CODE_EXECUTION, base_overhead_s=5.0e-6, jitter_fraction=0.50,
                   cpu_sensitivity=0.0)

    def mean_overhead_s(self, alloc_vcpus: float) -> float:
        """Mean serving overhead at the given CPU allocation."""
        if alloc_vcpus <= 0:
            raise ValueError("alloc_vcpus must be positive")
        scale = 1.0
        if alloc_vcpus < 1.0:
            scale += self.cpu_sensitivity * (1.0 / alloc_vcpus - 1.0)
        return self.base_overhead_s * scale

    def sampler(self, alloc_vcpus: float, rng: np.random.Generator) -> Callable[[], float]:
        """``sample()``: one overhead draw from ``rng`` (lognormal around the allocation's mean)."""
        mean = self.mean_overhead_s(alloc_vcpus)
        if mean <= 0:
            return lambda: 0.0
        sigma = self.jitter_fraction
        # Lognormal with the requested mean: mu = ln(mean) - sigma^2 / 2.
        mu = np.log(mean) - 0.5 * sigma**2
        lognormal = rng.lognormal
        return lambda: float(lognormal(mu, sigma))
