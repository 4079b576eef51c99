"""Traffic generators: arrival-time sequences for the platform simulator.

The paper's §3 experiments drive functions with three traffic shapes: short
bursts at a fixed request rate (Figure 6 left), steady long-running traffic
(Figure 6 right), and single probes separated by controlled idle gaps
(Figure 9's keep-alive measurement).
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "constant_rate_arrivals",
    "poisson_arrivals",
    "burst_arrivals",
    "idle_gap_probe_arrivals",
]


def constant_rate_arrivals(rps: float, duration_s: float, start_s: float = 0.0) -> List[float]:
    """Evenly spaced arrivals at ``rps`` requests per second for ``duration_s``.

    The times of :class:`repro.sim.arrivals.ConstantRateSource`: the
    ``int(round(rps * duration_s))`` floats ``start_s + i * (1 / rps)``.
    """
    from repro.sim.arrivals import ConstantRateSource

    return ConstantRateSource(rps, duration_s, start_s).times()


def poisson_arrivals(
    rps: float, duration_s: float, seed: int = 0, start_s: float = 0.0
) -> List[float]:
    """Poisson-process arrivals with mean rate ``rps`` over ``duration_s``.

    Generated in vectorized blocks through
    :class:`repro.sim.arrivals.PoissonSource`; the produced times are
    bit-identical to the scalar ``t += rng.exponential(1/rps)`` loop this
    function used to run (same RNG value stream, same float additions).
    """
    from repro.sim.arrivals import PoissonSource

    return PoissonSource(rps, duration_s, seed=seed, start_s=start_s).times()


def burst_arrivals(
    rps: float,
    burst_duration_s: float = 120.0,
    seed: Optional[int] = None,
    start_s: float = 0.0,
) -> List[float]:
    """A short traffic spike: the Figure 6 (left) workload (default 2 minutes)."""
    if seed is None:
        return constant_rate_arrivals(rps, burst_duration_s, start_s=start_s)
    return poisson_arrivals(rps, burst_duration_s, seed=seed, start_s=start_s)


def idle_gap_probe_arrivals(idle_gaps_s: List[float], start_s: float = 0.0) -> List[float]:
    """Single probes separated by the given idle gaps (Figure 9's methodology).

    The idle gap is measured from the *end* of the previous invocation to the
    next arrival; callers should add the expected execution duration to the
    gaps if exact end-to-start spacing matters (the keep-alive analysis module
    does this).
    """
    arrivals: List[float] = []
    t = start_s
    for gap in idle_gaps_s:
        if gap < 0:
            raise ValueError("idle gaps must be >= 0")
        arrivals.append(t)
        t += gap
    return arrivals
