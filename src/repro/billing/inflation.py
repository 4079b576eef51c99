"""Trace-level billable-resource inflation analysis (paper §2.3, Figure 2).

Given a trace and a set of billing models, this module computes for every
request the billable vCPU-seconds and GB-seconds and compares them with the
actual consumption, producing the inflation factors the paper reports:
billable vCPU time exceeding actual usage by 1.01x (Cloudflare) up to 3.63x
(GCP) and billable memory by 1.57x (Azure) up to 4.35x (GCP) on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.billing.calculator import BillingCalculator
from repro.billing.catalog import PlatformName
from repro.billing.models import BillableTime
from repro.numeric import fold
from repro.traces.schema import RequestRecord, Trace

__all__ = ["InflationResult", "InflationAnalyzer", "FIGURE2_PLATFORMS"]

#: The representative billing models / allocation patterns shown in Figure 2.
FIGURE2_PLATFORMS: Sequence[PlatformName] = (
    PlatformName.HUAWEI_FUNCTIONGRAPH,  # fixed vCPU-memory combos
    PlatformName.AWS_LAMBDA,  # proportional vCPU allocation
    PlatformName.GCP_RUN_REQUEST,  # wall-clock duration rounding (100 ms)
    PlatformName.AZURE_CONSUMPTION,  # time and usage rounding
    PlatformName.CLOUDFLARE_WORKERS,  # usage-based billing
)


@dataclass
class InflationResult:
    """Per-platform billable resources versus actual consumption over a trace."""

    platform: str
    billable_cpu_seconds: List[float] = field(default_factory=list)
    billable_memory_gb_seconds: List[float] = field(default_factory=list)
    actual_cpu_seconds: List[float] = field(default_factory=list)
    actual_memory_gb_seconds: List[float] = field(default_factory=list)

    @property
    def mean_cpu_inflation(self) -> float:
        """Mean of billable over actual vCPU-seconds across requests."""
        return _mean_ratio(self.billable_cpu_seconds, self.actual_cpu_seconds)

    @property
    def mean_memory_inflation(self) -> float:
        """Mean of billable over actual GB-seconds across requests."""
        return _mean_ratio(self.billable_memory_gb_seconds, self.actual_memory_gb_seconds)

    @property
    def aggregate_cpu_inflation(self) -> float:
        """Total billable over total actual vCPU-seconds (trace-level aggregate)."""
        total_actual = fold(self.actual_cpu_seconds)
        if total_actual <= 0:
            return float("nan")
        return fold(self.billable_cpu_seconds) / total_actual

    @property
    def aggregate_memory_inflation(self) -> float:
        """Total billable over total actual GB-seconds (trace-level aggregate)."""
        total_actual = fold(self.actual_memory_gb_seconds)
        if total_actual <= 0:
            return float("nan")
        return fold(self.billable_memory_gb_seconds) / total_actual


def _mean_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    ratios = [
        n / d
        for n, d in zip(numerators, denominators)
        if d > 0 and np.isfinite(n)
    ]
    if not ratios:
        return float("nan")
    return float(np.mean(ratios))


class InflationAnalyzer:
    """Computes Figure 2's billable-resource distributions for a trace."""

    def __init__(self, platforms: Optional[Sequence[PlatformName]] = None) -> None:
        self.platforms = list(FIGURE2_PLATFORMS if platforms is None else platforms)
        self._calculators = {p: BillingCalculator(p) for p in self.platforms}
        for platform, calculator in self._calculators.items():
            if calculator.model.billable_time is BillableTime.INSTANCE:
                raise ValueError(f"{platform.value} bills instance lifespans, not requests")

    def analyze(self, trace_or_requests: "Trace | Iterable[RequestRecord]") -> Dict[PlatformName, InflationResult]:
        """Bill every request under every platform model and collect the distributions.

        Requests reporting zero CPU usage are excluded, matching the paper's
        trace pre-processing.  Each platform's Equation 1 is compiled once per
        flavor (vCPU and memory allocation) and priced over that flavor's
        requests as numpy columns; the results are in request order.
        """
        if isinstance(trace_or_requests, Trace):
            requests = trace_or_requests.exclude_zero_cpu().requests
        else:
            requests = [r for r in trace_or_requests if r.usage.cpu_seconds > 0]

        flavors: Dict[Tuple[float, float], List[int]] = {}
        for index, record in enumerate(requests):
            flavors.setdefault((record.alloc_vcpus, record.alloc_memory_gb), []).append(index)
        actual_cpu = [r.usage.cpu_seconds for r in requests]
        # One row per price() argument: execution, init, used CPU, used memory.
        columns = np.array([
            [r.duration_s for r in requests], [r.init_duration_s for r in requests],
            actual_cpu, [r.usage.memory_gb for r in requests],
        ], dtype=float)
        actual_memory = (columns[3] * columns[0]).tolist()
        results = {}
        for platform, calculator in self._calculators.items():
            billable_cpu, billable_memory = np.zeros(len(requests)), np.zeros(len(requests))
            for index in flavors.values():
                price = calculator.compile(requests[index[0]], include_invocation_fee=False)
                _, billable_cpu[index], billable_memory[index] = price(*columns[:, index])
            results[platform] = InflationResult(
                platform.value, billable_cpu.tolist(), billable_memory.tolist(),
                list(actual_cpu), list(actual_memory),
            )
        return results
