"""Figure 9 and Table 2: keep-alive durations, cold-start probabilities, and idle-resource behaviour."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.platform.config import PlatformConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import PLATFORM_PRESETS, get_platform_preset
from repro.sim.sweep import Scenario, resolve_workload, run_sweep
from repro.workloads.functions import MINIMAL_FUNCTION, WorkloadSpec

__all__ = [
    "figure9_cold_start_probabilities",
    "figure9_probe_simulation",
    "run_probe_point",
    "table2_keepalive_behavior",
    "PAPER_KEEP_ALIVE_WINDOWS",
]

#: Paper-reported keep-alive windows (seconds) for EXPERIMENTS.md.
PAPER_KEEP_ALIVE_WINDOWS = {
    "aws_lambda_like": (300.0, 360.0),
    "azure_consumption_like": (120.0, 360.0),
    "gcp_run_like": (600.0, 900.0),
}

#: The idle-time grid of Figure 9 (60 s to 1020 s in 60 s steps).
DEFAULT_IDLE_TIMES_S: Sequence[float] = tuple(float(x) for x in range(60, 1021, 60))


def figure9_cold_start_probabilities(
    platforms: Optional[Dict[str, PlatformConfig]] = None,
    idle_times_s: Sequence[float] = DEFAULT_IDLE_TIMES_S,
) -> List[Dict[str, float]]:
    """Cold-start probability versus idle time per platform, from the keep-alive policies."""
    if platforms is None:
        platforms = {
            name: preset
            for name, preset in PLATFORM_PRESETS.items()
            if name in ("aws_lambda_like", "azure_consumption_like", "gcp_run_like")
        }
    rows: List[Dict[str, float]] = []
    for label, preset in platforms.items():
        for idle in idle_times_s:
            rows.append(
                {
                    "platform": label,
                    "idle_time_s": float(idle),
                    "cold_start_probability": preset.keep_alive.cold_start_probability(idle),
                }
            )
    return rows


def run_probe_point(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """Sweep runner: probe one (platform, idle-time) point of Figure 9.

    One long simulation per idle interval: probe requests spaced by the idle
    gap; the measured cold fraction (first always-cold probe excluded) is
    compared against the keep-alive policy's analytic probability.
    """
    platform_name = str(params["platform"])
    idle = float(params["idle_time_s"])  # type: ignore[arg-type]
    probes = int(params.get("probes_per_idle_time", 30))  # type: ignore[arg-type]
    workload = resolve_workload(params["workload"])
    preset = get_platform_preset(platform_name)
    function = workload.to_function_config(1.0, 0.5, init_duration_s=1.0)
    arrivals = [i * (idle + function.service_time_s + 2.0) for i in range(probes)]
    simulator = PlatformSimulator(preset, function, seed=seed)
    metrics = simulator.run(arrivals)
    outcomes = sorted(metrics.requests, key=lambda r: r.arrival_s)
    # Skip the first probe: it is always cold (no sandbox exists yet).
    later = outcomes[1:]
    cold = sum(1 for r in later if r.cold_start)
    return {
        "platform": platform_name,
        "idle_time_s": idle,
        "measured_cold_start_probability": cold / len(later) if later else float("nan"),
        "policy_cold_start_probability": preset.keep_alive.cold_start_probability(idle),
        "num_probes": float(len(later)),
    }


def figure9_probe_simulation(
    platform_name: str = "aws_lambda_like",
    idle_times_s: Sequence[float] = (60.0, 180.0, 300.0, 330.0, 420.0, 600.0),
    probes_per_idle_time: int = 30,
    workload: WorkloadSpec = MINIMAL_FUNCTION,
    seed: int = 11,
    backend: Optional[str] = None,
) -> List[Dict[str, float]]:
    """Empirically measure cold-start probability by probing the platform simulator.

    This mirrors the paper's methodology (send requests separated by controlled
    idle intervals, count how many are cold) rather than reading the policy
    directly, and therefore validates that the simulator's keep-alive expiry
    produces the configured probability curve.  Each idle time is one scenario
    of a :mod:`repro.sim.sweep` run; pass a ``backend`` spec to parallelise.
    """
    scenarios = [
        Scenario(
            scenario_id=f"fig9/platform={platform_name}/idle={idle}",
            runner="repro.analysis.keepalive:run_probe_point",
            params={
                "platform": platform_name,
                "idle_time_s": float(idle),
                "probes_per_idle_time": probes_per_idle_time,
                "workload": workload,
            },
            seed=seed,
        )
        for idle in idle_times_s
    ]
    return [dict(row) for row in run_sweep(scenarios, backend=backend)]


def table2_keepalive_behavior(
    platforms: Optional[Dict[str, PlatformConfig]] = None,
) -> List[Dict[str, object]]:
    """Table 2: resource allocation behaviour during keep-alive per platform."""
    if platforms is None:
        platforms = {
            name: PLATFORM_PRESETS[name]
            for name in (
                "aws_lambda_like",
                "gcp_run_like",
                "azure_consumption_like",
                "cloudflare_workers_like",
            )
        }
    rows: List[Dict[str, object]] = []
    for label, preset in platforms.items():
        idle_cpu, idle_memory = preset.keep_alive.idle_resources(1.0, 1.0)
        row: Dict[str, object] = {"platform": label}
        row.update(preset.keep_alive.describe())
        row["idle_vcpus_per_1vcpu_sandbox"] = idle_cpu
        row["idle_memory_fraction"] = idle_memory
        rows.append(row)
    return rows
