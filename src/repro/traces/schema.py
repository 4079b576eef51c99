"""Trace schema: per-request and per-cold-start records.

The fields mirror the columns of the Huawei Cloud production FaaS trace used
by the paper (request tables and cold-start tables), restricted to the fields
the paper's analyses actually consume:

- wall-clock execution duration of the request,
- consumed CPU time and average memory working set during the request,
- the vCPU / memory allocation (the function "flavor") the request ran under,
- cold-start metadata (initialisation duration, the sandbox/pod the cold start
  created, and resource allocation during initialisation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

__all__ = [
    "ResourceUsage",
    "RequestRecord",
    "ColdStartRecord",
    "FunctionProfile",
    "Trace",
]


@dataclass(frozen=True)
class ResourceUsage:
    """Actual resources consumed by one request.

    Attributes:
        cpu_seconds: consumed CPU time in vCPU-seconds (user + system).
        memory_gb: average resident memory during the request, in GB.
    """

    cpu_seconds: float
    memory_gb: float

    def __post_init__(self) -> None:
        if self.cpu_seconds < 0:
            raise ValueError(f"cpu_seconds must be >= 0, got {self.cpu_seconds}")
        if self.memory_gb < 0:
            raise ValueError(f"memory_gb must be >= 0, got {self.memory_gb}")


@dataclass(frozen=True)
class RequestRecord:
    """One serverless invocation as recorded by the platform.

    Attributes:
        request_id: unique identifier of the invocation.
        function_id: identifier of the function the request invoked.
        pod_id: identifier of the sandbox (pod / microVM) that served the request.
        arrival_s: arrival timestamp in seconds from the start of the trace.
        duration_s: wall-clock execution duration in seconds (excludes init).
        usage: actual CPU and memory consumption during execution.
        alloc_vcpus: vCPUs allocated to the sandbox (the flavor's CPU limit).
        alloc_memory_gb: memory allocated to the sandbox in GB.
        cold_start: True if this request triggered a sandbox initialisation.
        init_duration_s: initialisation (cold start) duration in seconds; zero
            for warm requests.
    """

    request_id: str
    function_id: str
    pod_id: str
    arrival_s: float
    duration_s: float
    usage: ResourceUsage
    alloc_vcpus: float
    alloc_memory_gb: float
    cold_start: bool = False
    init_duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        if self.alloc_vcpus <= 0:
            raise ValueError(f"alloc_vcpus must be > 0, got {self.alloc_vcpus}")
        if self.alloc_memory_gb <= 0:
            raise ValueError(f"alloc_memory_gb must be > 0, got {self.alloc_memory_gb}")
        if self.init_duration_s < 0:
            raise ValueError(f"init_duration_s must be >= 0, got {self.init_duration_s}")
        if not self.cold_start and self.init_duration_s > 0:
            raise ValueError("warm requests must have init_duration_s == 0")

    @property
    def turnaround_s(self) -> float:
        """Turnaround time: initialisation plus execution (paper §2.4)."""
        return self.init_duration_s + self.duration_s

    @property
    def cpu_utilization(self) -> float:
        """Consumed CPU time divided by the allocated CPU time over the execution window."""
        allotted = self.alloc_vcpus * self.duration_s
        if allotted <= 0:
            return 0.0
        return min(self.usage.cpu_seconds / allotted, 1.0)

    @property
    def memory_utilization(self) -> float:
        """Average consumed memory divided by the allocated memory."""
        if self.alloc_memory_gb <= 0:
            return 0.0
        return min(self.usage.memory_gb / self.alloc_memory_gb, 1.0)

    @property
    def actual_cpu_seconds(self) -> float:
        """Actual consumed vCPU-seconds (the paper's "actual usage" CPU baseline)."""
        return self.usage.cpu_seconds

    @property
    def actual_memory_gb_seconds(self) -> float:
        """Actual consumed GB-seconds (average memory times wall-clock duration)."""
        return self.usage.memory_gb * self.duration_s


@dataclass(frozen=True)
class ColdStartRecord:
    """A traceable cold start: one sandbox initialisation and the requests it served.

    The paper's Figure 4 compares the billable resources consumed during the
    initialisation phase against the sum of billable resources consumed by all
    subsequent requests served by the same sandbox.
    """

    pod_id: str
    function_id: str
    init_duration_s: float
    alloc_vcpus: float
    alloc_memory_gb: float
    subsequent_request_ids: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.init_duration_s < 0:
            raise ValueError(f"init_duration_s must be >= 0, got {self.init_duration_s}")
        if self.alloc_vcpus <= 0 or self.alloc_memory_gb <= 0:
            raise ValueError("allocations must be positive")

    @property
    def init_cpu_seconds(self) -> float:
        """Billable vCPU-seconds of the initialisation phase under wall-clock allocation billing."""
        return self.alloc_vcpus * self.init_duration_s

    @property
    def init_memory_gb_seconds(self) -> float:
        """Billable GB-seconds of the initialisation phase under wall-clock allocation billing."""
        return self.alloc_memory_gb * self.init_duration_s


@dataclass(frozen=True)
class FunctionProfile:
    """Static description of a deployed function (its "flavor" and workload class)."""

    function_id: str
    alloc_vcpus: float
    alloc_memory_gb: float
    mean_duration_s: float
    mean_cpu_utilization: float
    mean_memory_utilization: float
    workload_class: str = "generic"

    def __post_init__(self) -> None:
        if self.alloc_vcpus <= 0 or self.alloc_memory_gb <= 0:
            raise ValueError("allocations must be positive")
        if self.mean_duration_s <= 0:
            raise ValueError("mean_duration_s must be positive")
        if not 0 <= self.mean_cpu_utilization <= 1:
            raise ValueError("mean_cpu_utilization must be in [0, 1]")
        if not 0 <= self.mean_memory_utilization <= 1:
            raise ValueError("mean_memory_utilization must be in [0, 1]")


class Trace:
    """A collection of request and cold-start records with convenience accessors."""

    def __init__(
        self,
        requests: Iterable[RequestRecord],
        cold_starts: Optional[Iterable[ColdStartRecord]] = None,
        functions: Optional[Iterable[FunctionProfile]] = None,
    ) -> None:
        self._requests: List[RequestRecord] = list(requests)
        self._cold_starts: List[ColdStartRecord] = list(cold_starts or [])
        self._functions: Dict[str, FunctionProfile] = {
            profile.function_id: profile for profile in (functions or [])
        }
        self._requests_by_id: Dict[str, RequestRecord] = {
            record.request_id: record for record in self._requests
        }

    @property
    def requests(self) -> List[RequestRecord]:
        return list(self._requests)

    @property
    def cold_starts(self) -> List[ColdStartRecord]:
        return list(self._cold_starts)

    @property
    def functions(self) -> Dict[str, FunctionProfile]:
        return dict(self._functions)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[RequestRecord]:
        return iter(self._requests)

    def request(self, request_id: str) -> RequestRecord:
        """Look up a request by id, raising ``KeyError`` if absent."""
        return self._requests_by_id[request_id]

    def requests_for_function(self, function_id: str) -> List[RequestRecord]:
        return [r for r in self._requests if r.function_id == function_id]

    def filter(self, predicate) -> "Trace":
        """Return a new trace containing only the requests matching ``predicate``."""
        kept = [r for r in self._requests if predicate(r)]
        kept_pods = {r.pod_id for r in kept}
        cold = [c for c in self._cold_starts if c.pod_id in kept_pods]
        return Trace(kept, cold, self._functions.values())

    def exclude_zero_cpu(self) -> "Trace":
        """Drop requests reporting zero CPU usage, as the paper does for its §2 analysis."""
        return self.filter(lambda r: r.usage.cpu_seconds > 0)

    def summary(self) -> Dict[str, float]:
        """High-level summary statistics of the trace (all durations in seconds)."""
        if not self._requests:
            return {
                "num_requests": 0,
                "num_cold_starts": 0,
                "mean_duration_s": math.nan,
                "mean_cpu_seconds": math.nan,
                "mean_memory_gb": math.nan,
            }
        n = len(self._requests)
        return {
            "num_requests": float(n),
            "num_cold_starts": float(len(self._cold_starts)),
            "mean_duration_s": sum(r.duration_s for r in self._requests) / n,
            "mean_cpu_seconds": sum(r.usage.cpu_seconds for r in self._requests) / n,
            "mean_memory_gb": sum(r.usage.memory_gb for r in self._requests) / n,
        }
