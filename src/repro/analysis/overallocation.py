"""Figure 10: execution duration versus fractional CPU allocation (overallocation study)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.sched.analytical import expected_duration_reciprocal, quantization_jump_allocations
from repro.sched.cgroup import BandwidthConfig
from repro.sched.engine import SchedulerConfig, SchedulerSim
from repro.sched.policies import PolicyParameters, SchedulingPolicy
from repro.sched.presets import PROVIDER_SCHED_PRESETS
from repro.sched.task import SimTask
from repro.sim.sweep import Scenario, run_sweep

__all__ = [
    "figure10_allocation_sweep",
    "figure10_summary",
    "aws_memory_to_vcpus",
    "run_allocation_point",
    "DEFAULT_AWS_MEMORY_SWEEP_MB",
]

#: Memory sizes (MB) swept on AWS Lambda in Figure 10a.
DEFAULT_AWS_MEMORY_SWEEP_MB: Sequence[int] = (
    128, 192, 256, 320, 384, 448, 512, 640, 768, 896, 1024, 1152, 1280, 1408, 1536, 1664, 1769,
)

#: vCPU allocations swept on GCP in Figure 10b.
DEFAULT_GCP_VCPU_SWEEP: Sequence[float] = (
    0.08, 0.12, 0.16, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


def aws_memory_to_vcpus(memory_mb: float) -> float:
    """AWS Lambda's proportional CPU allocation: 1,769 MB corresponds to 1 vCPU."""
    if memory_mb <= 0:
        raise ValueError("memory_mb must be positive")
    return min(memory_mb / 1769.0, 1.0)


def _simulate_duration(
    cpu_time_s: float,
    vcpu_fraction: float,
    period_s: float,
    tick_hz: int,
    samples: int,
    seed: int,
    policy: SchedulingPolicy = SchedulingPolicy.CFS,
) -> List[float]:
    """Simulate one CPU-bound request ``samples`` times with random phase offsets."""
    rng = np.random.default_rng(seed)
    durations: List[float] = []
    bandwidth = BandwidthConfig.for_vcpu_fraction(vcpu_fraction, period_s=period_s)
    horizon = max(expected_duration_reciprocal(cpu_time_s, vcpu_fraction) * 4 + 1.0, 2.0)
    for _ in range(samples):
        config = SchedulerConfig(
            bandwidth=bandwidth,
            tick_hz=tick_hz,
            policy=PolicyParameters(policy=policy),
            tick_phase_s=float(rng.uniform(0.0, 1.0 / tick_hz)),
            period_phase_s=float(rng.uniform(0.0, period_s)),
            horizon_s=horizon,
        )
        task = SimTask.cpu_bound(cpu_time_s, name="probe")
        result = SchedulerSim(config, [task]).run().single
        if result.finished:
            durations.append(result.duration_s)
    return durations


def run_allocation_point(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """Sweep runner: one fractional-allocation point of Figure 10."""
    provider = str(params["provider"])
    cpu_time_s = float(params["cpu_time_s"])  # type: ignore[arg-type]
    fraction = float(params["vcpu_fraction"])  # type: ignore[arg-type]
    preset = PROVIDER_SCHED_PRESETS[provider]
    durations = _simulate_duration(
        cpu_time_s=cpu_time_s,
        vcpu_fraction=fraction,
        period_s=preset.period_s,
        tick_hz=preset.tick_hz,
        samples=int(params.get("samples_per_point", 20)),  # type: ignore[arg-type]
        seed=seed,
    )
    expected = expected_duration_reciprocal(cpu_time_s, fraction)
    return {
        "provider": provider,
        "vcpu_fraction": fraction,
        "memory_mb": float(fraction * 1769.0) if provider == "aws_lambda" else float("nan"),
        "empirical_mean_duration_ms": float(np.mean(durations)) * 1e3,
        "empirical_p5_duration_ms": float(np.quantile(durations, 0.05)) * 1e3,
        "expected_duration_ms": expected * 1e3,
        "overallocation_ratio": expected / float(np.mean(durations)) if durations else float("nan"),
        "samples": float(len(durations)),
    }


def figure10_allocation_sweep(
    provider: str = "aws_lambda",
    cpu_time_s: float = 0.016,
    vcpu_fractions: Optional[Sequence[float]] = None,
    samples_per_point: int = 20,
    seed: int = 3,
    backend: Optional[str] = None,
) -> List[Dict[str, float]]:
    """Figure 10: empirical versus expected duration across fractional allocations.

    ``provider`` selects the bandwidth period and timer frequency (Table 3).
    The default CPU time of ~16 ms reproduces the harmonic jump positions the
    paper observes on AWS (~1,400 MB x {1, 1/2, 1/3, ...}).  Each allocation
    is one scenario of a :mod:`repro.sim.sweep` run (seeded ``seed + index``
    as before); pass a ``backend`` spec to fan the points out across cores.
    """
    if vcpu_fractions is None:
        if provider == "aws_lambda":
            vcpu_fractions = [aws_memory_to_vcpus(m) for m in DEFAULT_AWS_MEMORY_SWEEP_MB]
        else:
            vcpu_fractions = list(DEFAULT_GCP_VCPU_SWEEP)
    scenarios = [
        Scenario(
            scenario_id=f"fig10/provider={provider}/fraction={fraction}",
            runner="repro.analysis.overallocation:run_allocation_point",
            params={
                "provider": provider,
                "cpu_time_s": cpu_time_s,
                "vcpu_fraction": float(fraction),
                "samples_per_point": samples_per_point,
            },
            seed=seed + index,
        )
        for index, fraction in enumerate(vcpu_fractions)
    ]
    return [dict(row) for row in run_sweep(scenarios, backend=backend)]


def figure10_summary(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Headline statistics: how often the empirical mean beats the reciprocal expectation."""
    below = [r for r in rows if r["empirical_mean_duration_ms"] <= r["expected_duration_ms"] * 1.02]
    sub_core = [r for r in rows if r["vcpu_fraction"] < 1.0]
    return {
        "num_points": float(len(rows)),
        "points_at_or_below_expected": float(len(below)),
        "fraction_at_or_below_expected": len(below) / len(rows) if rows else float("nan"),
        "mean_overallocation_ratio_subcore": float(
            np.mean([r["overallocation_ratio"] for r in sub_core])
        )
        if sub_core
        else float("nan"),
    }


def figure10_jump_positions(
    provider: str = "aws_lambda", cpu_time_s: float = 0.016, max_jumps: int = 6
) -> List[Dict[str, float]]:
    """Predicted quantization-jump allocations (the harmonic sequence of §4.1)."""
    preset = PROVIDER_SCHED_PRESETS[provider]
    fractions = quantization_jump_allocations(cpu_time_s, preset.period_s, max_jumps=max_jumps)
    return [
        {
            "provider": provider,
            "jump_index": float(i + 1),
            "vcpu_fraction": fraction,
            "memory_mb": fraction * 1769.0 if provider == "aws_lambda" else float("nan"),
        }
        for i, fraction in enumerate(fractions)
    ]
