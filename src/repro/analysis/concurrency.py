"""Figure 6: execution duration under varying request rates and the scaling-lag timeline."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.platform.config import PlatformConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.sim.sweep import Scenario, platform_point, run_sweep
from repro.workloads.functions import PYAES_FUNCTION, WorkloadSpec
from repro.workloads.traffic import constant_rate_arrivals, poisson_arrivals

__all__ = ["figure6_burst_sweep", "figure6_long_run_timeline", "run_burst_point", "PAPER_FIG6"]

#: Paper-reported reference points for EXPERIMENTS.md.
PAPER_FIG6 = {
    "gcp_max_slowdown": 9.65,  # mean duration rise at high RPS vs low RPS
    "gcp_steady_state_slowdown": 1.43,  # 239.29 ms vs 166.78 ms at 15 RPS steady state
    "scaling_start_s": 40.0,
    "stabilization_s": 90.0,
}

DEFAULT_RPS_SWEEP: Sequence[float] = (1, 2, 4, 6, 8, 10, 15, 20, 25, 30)


def run_burst_point(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """Sweep runner: one (platform, rps) burst simulation of Figure 6 (left).

    Delegates the simulation to the generic :func:`repro.sim.sweep.platform_point`
    runner and projects its row down to the figure's legacy column set.
    """
    full = platform_point(
        {
            "platform": params["platform"],
            "workload": params["workload"],
            "label": params["label"],
            "rps": params["rps"],
            "duration_s": params["burst_duration_s"],
            "alloc_vcpus": params.get("alloc_vcpus", 1.0),
            "alloc_memory_gb": params.get("alloc_memory_gb", 2.0),
            "init_duration_s": 1.5,
        },
        seed,
    )
    columns = (
        "platform",
        "rps",
        "mean_duration_ms",
        "median_duration_ms",
        "p95_duration_ms",
        "max_instances",
        "num_requests",
    )
    return {key: full[key] for key in columns}


def figure6_burst_sweep(
    workload: WorkloadSpec = PYAES_FUNCTION,
    platforms: Optional[Dict[str, PlatformConfig]] = None,
    rps_sweep: Sequence[float] = DEFAULT_RPS_SWEEP,
    burst_duration_s: float = 120.0,
    alloc_vcpus: float = 1.0,
    alloc_memory_gb: float = 2.0,
    seed: int = 1,
    backend: Optional[str] = None,
) -> List[Dict[str, float]]:
    """Figure 6 (left): mean/median execution duration versus request rate per platform.

    The (platform x rps) grid runs through the :mod:`repro.sim.sweep`
    orchestrator; pass a ``backend`` spec (e.g. ``"multiprocessing"``) to fan
    the points out across cores (results are identical to the serial run).
    """
    if platforms is None:
        platforms = {
            "aws": get_platform_preset("aws_lambda_like"),
            "gcp": get_platform_preset("gcp_run_like"),
        }
    scenarios = [
        Scenario(
            scenario_id=f"fig6/platform={label}/rps={rps}",
            runner="repro.analysis.concurrency:run_burst_point",
            params={
                "label": label,
                "platform": preset,
                "workload": workload,
                "rps": float(rps),
                "burst_duration_s": burst_duration_s,
                "alloc_vcpus": alloc_vcpus,
                "alloc_memory_gb": alloc_memory_gb,
            },
            seed=seed,
        )
        for label, preset in platforms.items()
        for rps in rps_sweep
    ]
    return [dict(row) for row in run_sweep(scenarios, backend=backend)]


def figure6_slowdown_summary(rows: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Per-platform max slowdown of the mean duration relative to the lowest request rate."""
    out: List[Dict[str, float]] = []
    platforms = sorted({row["platform"] for row in rows})
    for platform in platforms:
        platform_rows = sorted((r for r in rows if r["platform"] == platform), key=lambda r: r["rps"])
        baseline = platform_rows[0]["mean_duration_ms"]
        max_mean = max(r["mean_duration_ms"] for r in platform_rows)
        out.append(
            {
                "platform": platform,
                "baseline_mean_ms": baseline,
                "max_mean_ms": max_mean,
                "max_slowdown": max_mean / baseline if baseline > 0 else float("nan"),
            }
        )
    return out


def figure6_long_run_timeline(
    workload: WorkloadSpec = PYAES_FUNCTION,
    platform: Optional[PlatformConfig] = None,
    rps: float = 15.0,
    duration_s: float = 300.0,
    bucket_s: float = 10.0,
    alloc_vcpus: float = 1.0,
    alloc_memory_gb: float = 2.0,
    seed: int = 2,
    poisson: bool = True,
) -> List[Dict[str, float]]:
    """Figure 6 (right): mean/median/p95 duration and instance count over time at steady traffic."""
    platform = platform or get_platform_preset("gcp_run_like")
    function = workload.to_function_config(alloc_vcpus, alloc_memory_gb, init_duration_s=1.5)
    simulator = PlatformSimulator(platform, function, seed=seed)
    if poisson:
        arrivals = poisson_arrivals(rps, duration_s, seed=seed)
    else:
        arrivals = constant_rate_arrivals(rps, duration_s)
    metrics = simulator.run(arrivals)
    return metrics.duration_timeline(bucket_s=bucket_s)


def figure6_long_run_summary(timeline: List[Dict[str, float]], tail_start_s: float = 120.0) -> Dict[str, float]:
    """Scaling-lag metrics from the long-run timeline: when scaling starts and the steady state."""
    if not timeline:
        return {}
    initial_instances = timeline[0]["instances"]
    scaling_start = float("nan")
    for row in timeline:
        if not np.isnan(row["instances"]) and row["instances"] > initial_instances + 0.5:
            scaling_start = row["time_s"]
            break
    steady_rows = [r for r in timeline if r["time_s"] >= tail_start_s]
    steady_mean = float(np.mean([r["mean_duration_s"] for r in steady_rows])) if steady_rows else float("nan")
    return {
        "scaling_start_s": scaling_start,
        "steady_state_mean_duration_s": steady_mean,
        "peak_mean_duration_s": max(r["mean_duration_s"] for r in timeline),
        "max_instances": max(r["instances"] for r in timeline if not np.isnan(r["instances"])),
    }
