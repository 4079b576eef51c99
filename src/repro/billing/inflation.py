"""Trace-level billable-resource inflation analysis (paper §2.3, Figure 2).

Given a trace and a set of billing models, this module computes for every
request the billable vCPU-seconds and GB-seconds and compares them with the
actual consumption, producing the inflation factors the paper reports:
billable vCPU time exceeding actual usage by 1.01x (Cloudflare) up to 3.63x
(GCP) and billable memory by 1.57x (Azure) up to 4.35x (GCP) on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.billing.calculator import BillingCalculator, InvocationBillingInput
from repro.billing.catalog import PlatformName
from repro.billing.units import ResourceKind
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

    def summary(self) -> Dict[str, float]:
        return {
            "platform_mean_cpu_inflation": self.mean_cpu_inflation,
            "platform_mean_memory_inflation": self.mean_memory_inflation,
            "aggregate_cpu_inflation": self.aggregate_cpu_inflation,
            "aggregate_memory_inflation": self.aggregate_memory_inflation,
            "num_requests": float(len(self.billable_cpu_seconds)),
        }


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
        self.platforms = list(platforms or FIGURE2_PLATFORMS)
        self._calculators = {p: BillingCalculator(p) for p in self.platforms}

    def analyze(self, trace_or_requests: "Trace | Iterable[RequestRecord]") -> Dict[PlatformName, InflationResult]:
        """Bill every request under every platform model and collect the distributions.

        Requests reporting zero CPU usage are excluded, matching the paper's
        trace pre-processing.
        """
        if isinstance(trace_or_requests, Trace):
            requests = trace_or_requests.exclude_zero_cpu().requests
        else:
            requests = [r for r in trace_or_requests if r.usage.cpu_seconds > 0]

        results = {p: InflationResult(platform=p.value) for p in self.platforms}
        for record in requests:
            inputs = InvocationBillingInput.from_request(record)
            actual_cpu = record.actual_cpu_seconds
            actual_mem = record.actual_memory_gb_seconds
            for platform in self.platforms:
                billable = self._calculators[platform].billable_resources(inputs)
                result = results[platform]
                result.billable_cpu_seconds.append(billable.get(ResourceKind.CPU, 0.0))
                result.billable_memory_gb_seconds.append(billable.get(ResourceKind.MEMORY, 0.0))
                result.actual_cpu_seconds.append(actual_cpu)
                result.actual_memory_gb_seconds.append(actual_mem)
        return results

    def inflation_table(self, trace: "Trace | Iterable[RequestRecord]") -> List[Dict[str, float]]:
        """A compact table of mean CPU / memory inflation per platform (Figure 2 summary)."""
        results = self.analyze(trace)
        rows: List[Dict[str, float]] = []
        for platform, result in results.items():
            row: Dict[str, float] = {"platform": platform.value}  # type: ignore[dict-item]
            row.update(result.summary())
            rows.append(row)
        return rows
