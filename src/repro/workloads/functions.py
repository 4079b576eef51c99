"""Workload specifications: the functions deployed in the paper's experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.platform.config import FunctionConfig

__all__ = [
    "WorkloadSpec",
    "MINIMAL_FUNCTION",
    "PYAES_FUNCTION",
    "VIDEO_PROCESSING_FUNCTION",
    "WORKLOAD_CATALOG",
    "get_workload",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload with its per-request resource footprint.

    Attributes:
        name: workload identifier.
        cpu_time_s: CPU time one request needs at a full 1 vCPU allocation.
        io_time_s: wall-clock time spent blocked (remote calls, storage).
        used_memory_gb: average resident memory during a request.
        description: provenance of the workload and what it models.
        decomposable_chunks: number of roughly equal compute chunks the
            workload can be split into (for the §4.3 intermittent-execution
            exploit); 1 means it cannot be decomposed.
    """

    name: str
    cpu_time_s: float
    io_time_s: float = 0.0
    used_memory_gb: float = 0.05
    description: str = ""
    decomposable_chunks: int = 1

    def __post_init__(self) -> None:
        if self.cpu_time_s < 0 or self.io_time_s < 0:
            raise ValueError("times must be >= 0")
        if self.used_memory_gb < 0:
            raise ValueError("used_memory_gb must be >= 0")
        if self.decomposable_chunks < 1:
            raise ValueError("decomposable_chunks must be >= 1")

    def to_function_config(
        self,
        alloc_vcpus: float,
        alloc_memory_gb: float,
        init_duration_s: float = 1.0,
    ) -> FunctionConfig:
        """Deploy this workload as a function with the given resource allocation."""
        return FunctionConfig(
            name=self.name,
            alloc_vcpus=alloc_vcpus,
            alloc_memory_gb=alloc_memory_gb,
            cpu_time_s=self.cpu_time_s,
            io_time_s=self.io_time_s,
            used_memory_gb=self.used_memory_gb,
            init_duration_s=init_duration_s,
        )


#: A minimal function that returns an empty response: the §3.2 overhead probe.
MINIMAL_FUNCTION = WorkloadSpec(
    name="minimal",
    cpu_time_s=5.0e-5,
    io_time_s=0.0,
    used_memory_gb=0.03,
    description="Minimal echo function used to measure serving-architecture overhead (Figure 8).",
)

#: PyAES from FunctionBench: single-threaded, compute-bound AES encryption,
#: ~160 ms of CPU time per request at 1 vCPU (§3.1 and §4.1).
PYAES_FUNCTION = WorkloadSpec(
    name="pyaes",
    cpu_time_s=0.160,
    io_time_s=0.0,
    used_memory_gb=0.09,
    description="FunctionBench PyAES: compute-bound AES-CTR encryption of a text block.",
)

#: A short PyAES variant (~16 ms) matching the CPU footprint of the Figure 10
#: overallocation sweep, where quantization jumps appear at ~1400 MB x 1/n.
PYAES_SHORT_FUNCTION = WorkloadSpec(
    name="pyaes_short",
    cpu_time_s=0.016,
    io_time_s=0.0,
    used_memory_gb=0.09,
    description="Short PyAES configuration used for the fractional-allocation sweep (Figure 10).",
)

#: SeBS video-processing: a long, decomposable pipeline (download, transcode
#: chunks, upload) used by the §4.3 intermittent-execution exploit.
VIDEO_PROCESSING_FUNCTION = WorkloadSpec(
    name="video_processing",
    cpu_time_s=2.4,
    io_time_s=0.3,
    used_memory_gb=0.35,
    description="SeBS-like video processing: a long compute pipeline decomposable into short bursts.",
    decomposable_chunks=160,
)

#: An IO-heavy workload (blocking on remote APIs) for utilisation studies.
IO_BOUND_FUNCTION = WorkloadSpec(
    name="io_bound",
    cpu_time_s=0.008,
    io_time_s=0.220,
    used_memory_gb=0.06,
    description="IO-dominated function: short bursts of CPU between remote-call waits.",
)

WORKLOAD_CATALOG: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        MINIMAL_FUNCTION,
        PYAES_FUNCTION,
        PYAES_SHORT_FUNCTION,
        VIDEO_PROCESSING_FUNCTION,
        IO_BOUND_FUNCTION,
    )
}


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload spec by name."""
    try:
        return WORKLOAD_CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; valid: {sorted(WORKLOAD_CATALOG)}") from None
