"""Provider-side cost of keep-alive (paper §3.3).

"Function keep-alive has a direct impact on provider cost, as idle functions
can hold active resources or reserved capacity, affecting deployment density.
These costs are ultimately passed on to users through per-unit resource
pricing or invocation fees."

This module quantifies that: given a traffic pattern (inter-arrival
distribution) and a keep-alive policy, it computes the expected idle
resource-seconds the provider holds per request, the resulting cold-start
probability, and -- priced at the platform's own unit prices -- the implied
per-request keep-alive cost the provider must recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.billing.pricing import PLATFORM_PRICES
from repro.billing.catalog import PlatformName
from repro.platform.keepalive import KeepAlivePolicy

__all__ = ["KeepAliveCostEstimate", "estimate_keepalive_cost", "keepalive_policy_comparison"]


@dataclass(frozen=True)
class KeepAliveCostEstimate:
    """Expected keep-alive footprint and implied provider cost per request."""

    policy_label: str
    mean_idle_s_per_request: float
    idle_vcpu_seconds_per_request: float
    idle_gb_seconds_per_request: float
    cold_start_probability: float
    implied_cost_per_request: float

    def as_row(self) -> Dict[str, float]:
        return {
            "policy": self.policy_label,  # type: ignore[dict-item]
            "mean_idle_s_per_request": self.mean_idle_s_per_request,
            "idle_vcpu_seconds_per_request": self.idle_vcpu_seconds_per_request,
            "idle_gb_seconds_per_request": self.idle_gb_seconds_per_request,
            "cold_start_probability": self.cold_start_probability,
            "implied_cost_per_request": self.implied_cost_per_request,
        }


def estimate_keepalive_cost(
    policy: KeepAlivePolicy,
    idle_gaps_s: Sequence[float],
    alloc_vcpus: float,
    alloc_memory_gb: float,
    pricing_platform: PlatformName = PlatformName.AWS_LAMBDA,
    policy_label: str = "policy",
) -> KeepAliveCostEstimate:
    """Estimate idle resources held per request for a sequence of inter-request idle gaps.

    For each gap the sandbox stays resident for ``min(gap, keep-alive)``; the
    idle CPU/memory held during that window follow the policy's Table 2
    behaviour.  Gaps longer than the keep-alive window produce a cold start on
    the next request.
    """
    if not idle_gaps_s:
        raise ValueError("at least one idle gap is required")
    if alloc_vcpus <= 0 or alloc_memory_gb <= 0:
        raise ValueError("allocations must be positive")
    idle_cpu, idle_memory = policy.idle_resources(alloc_vcpus, alloc_memory_gb)
    cpu_price, memory_price = PLATFORM_PRICES[pricing_platform].implied_unit_prices()

    held_durations = []
    cold = 0
    for gap in idle_gaps_s:
        if gap < 0:
            raise ValueError("idle gaps must be >= 0")
        # Expected residency under the opportunistic window: the sandbox is
        # held until either the next request or the (midpoint) keep-alive expiry.
        expected_keep_alive = 0.5 * (policy.min_keep_alive_s + policy.max_keep_alive_s)
        held_durations.append(min(gap, expected_keep_alive))
        cold += policy.cold_start_probability(gap)

    mean_idle = float(np.mean(held_durations))
    idle_vcpu_seconds = idle_cpu * mean_idle
    idle_gb_seconds = idle_memory * mean_idle
    implied_cost = idle_vcpu_seconds * cpu_price + idle_gb_seconds * memory_price
    return KeepAliveCostEstimate(
        policy_label=policy_label,
        mean_idle_s_per_request=mean_idle,
        idle_vcpu_seconds_per_request=idle_vcpu_seconds,
        idle_gb_seconds_per_request=idle_gb_seconds,
        cold_start_probability=cold / len(idle_gaps_s),
        implied_cost_per_request=implied_cost,
    )


def keepalive_policy_comparison(
    policies: Dict[str, KeepAlivePolicy],
    idle_gaps_s: Sequence[float],
    alloc_vcpus: float = 1.0,
    alloc_memory_gb: float = 1.0,
    pricing_platform: PlatformName = PlatformName.AWS_LAMBDA,
) -> Dict[str, KeepAliveCostEstimate]:
    """Estimate the keep-alive cost / cold-start trade-off for several policies at once."""
    return {
        label: estimate_keepalive_cost(
            policy,
            idle_gaps_s,
            alloc_vcpus,
            alloc_memory_gb,
            pricing_platform=pricing_platform,
            policy_label=label,
        )
        for label, policy in policies.items()
    }
