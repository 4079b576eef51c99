"""Closed-form duration models for CPU-bound tasks under bandwidth control.

Implements the paper's Equation (2):

.. math::

    d = \\begin{cases}
        \\lfloor T/Q \\rfloor P + (T \\bmod Q) & \\text{if } T \\bmod Q \\neq 0 \\\\
        (\\lfloor T/Q \\rfloor - 1) P + Q       & \\text{otherwise}
    \\end{cases}

where ``T`` is the task's required CPU time, ``P`` the bandwidth-control
period and ``Q`` the quota per period.  The model assumes exact (lag-free)
runtime accounting; the simulator adds the tick-granularity effects on top.
Figure 11 plots this model for the Huawei-trace mean CPU time of 51.8 ms over
periods from 5 ms to 100 ms.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

__all__ = [
    "theoretical_duration",
    "expected_duration_reciprocal",
    "theoretical_duration_series",
    "quantization_jump_allocations",
]

#: CPU time left after the last full quota at or below this many seconds
#: counts as none: the task then ends with that period's quota, not one
#: period later.
_REMAINDER_EPS_S = 1e-12


def theoretical_duration(cpu_time_s: float, period_s: float, quota_s: float) -> float:
    """Equation (2): wall-clock duration of a CPU-bound task under ideal accounting."""
    if cpu_time_s < 0:
        raise ValueError("cpu_time_s must be >= 0")
    if period_s <= 0 or quota_s <= 0:
        raise ValueError("period_s and quota_s must be positive")
    if cpu_time_s == 0:
        return 0.0
    if quota_s >= period_s:
        # No effective limit below one full CPU: the task runs undisturbed.
        return cpu_time_s
    full_periods = math.floor(cpu_time_s / quota_s)
    remainder = cpu_time_s - full_periods * quota_s
    if remainder > _REMAINDER_EPS_S:
        return full_periods * period_s + remainder
    return (full_periods - 1) * period_s + quota_s


def expected_duration_reciprocal(cpu_time_s: float, vcpu_fraction: float) -> float:
    """The naive expectation: duration scales as 1/fraction (the paper's dashed line)."""
    if vcpu_fraction <= 0:
        raise ValueError("vcpu_fraction must be positive")
    return cpu_time_s / min(vcpu_fraction, 1.0)


def theoretical_duration_series(
    cpu_time_s: float,
    period_s: float,
    vcpu_fractions: Sequence[float],
) -> List[Dict[str, float]]:
    """Figure 11's series: duration versus fractional vCPU allocation for one period."""
    rows: List[Dict[str, float]] = []
    for fraction in vcpu_fractions:
        if fraction <= 0:
            raise ValueError("vcpu fractions must be positive")
        quota = fraction * period_s
        rows.append(
            {
                "vcpu_fraction": float(fraction),
                "period_ms": period_s * 1e3,
                "duration_ms": theoretical_duration(cpu_time_s, period_s, quota) * 1e3,
                "ideal_duration_ms": expected_duration_reciprocal(cpu_time_s, fraction) * 1e3,
            }
        )
    return rows


def quantization_jump_allocations(cpu_time_s: float, period_s: float, max_jumps: int = 10) -> List[float]:
    """The vCPU allocations where Equation (2) predicts duration jumps.

    Jumps occur where the number of periods needed changes, i.e. at quotas
    ``Q = T / n``; the corresponding allocations form the scaled harmonic
    sequence the paper observes (e.g. ~1400 MB x {1, 1/2, 1/3, ...} on AWS).
    Only allocations at or below one full vCPU are returned.
    """
    if max_jumps <= 0:
        raise ValueError("max_jumps must be positive")
    allocations: List[float] = []
    for n in range(1, max_jumps + 1):
        fraction = cpu_time_s / (n * period_s)
        if fraction <= 1.0:
            allocations.append(fraction)
    return allocations
