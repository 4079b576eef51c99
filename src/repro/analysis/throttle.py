"""Figure 12 and Table 3: scheduler profiling and scheduling-parameter inference.

The paper runs the Algorithm-1 profiler on AWS, GCP and IBM functions and on
local VMs with known settings, compares the distributions of throttle
intervals, throttle durations and obtained CPU time, and infers each
provider's bandwidth-control period and timer frequency (Table 3).  Here the
"cloud" runs are simulations with the provider presets and the "local" runs
are simulations with explicitly chosen periods/quotas/timer frequencies; the
inference procedure then recovers the parameters from the observed
distributions, closing the same loop the paper closes against real clouds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sched.cgroup import BandwidthConfig
from repro.sched.engine import SchedulerConfig, SchedulerSim
from repro.sched.policies import PolicyParameters, SchedulingPolicy
from repro.sched.presets import PROVIDER_SCHED_PRESETS
from repro.sched.profiler import ThrottleProfile, ThrottleProfileSet, profile_task_result
from repro.sched.task import SimTask

__all__ = [
    "profile_configuration",
    "figure12_provider_profiles",
    "figure12_cfs_vs_eevdf",
    "infer_scheduling_parameters_by_matching",
    "table3_inference",
    "PAPER_TABLE3",
]

#: Table 3 as reported by the paper.
PAPER_TABLE3 = {
    "aws_lambda": {"period_ms": 20.0, "tick_hz": 250},
    "gcp_run_functions": {"period_ms": 100.0, "tick_hz": 1000},
    "ibm_code_engine": {"period_ms": 10.0, "tick_hz": 250},
}


def profile_configuration(
    vcpu_fraction: float,
    period_s: float,
    tick_hz: int,
    policy: SchedulingPolicy = SchedulingPolicy.CFS,
    exec_duration_s: float = 5.0,
    invocations: int = 10,
    seed: int = 0,
) -> ThrottleProfileSet:
    """Run the Algorithm-1 profiler against one scheduling configuration.

    Each invocation spins for ``exec_duration_s`` of wall-clock time (the CPU
    demand is set high enough that the task never finishes early); the
    per-invocation profiles are pooled, mirroring the paper's aggregation of
    300 invocations per configuration.
    """
    rng = np.random.default_rng(seed)
    profile_set = ThrottleProfileSet()
    bandwidth = BandwidthConfig.for_vcpu_fraction(vcpu_fraction, period_s=period_s)
    for _ in range(invocations):
        config = SchedulerConfig(
            bandwidth=bandwidth,
            tick_hz=tick_hz,
            policy=PolicyParameters(policy=policy),
            tick_phase_s=float(rng.uniform(0.0, 1.0 / tick_hz)),
            period_phase_s=float(rng.uniform(0.0, period_s)),
            horizon_s=exec_duration_s,
        )
        task = SimTask.cpu_bound(exec_duration_s * 2.0, name="spin")
        result = SchedulerSim(config, [task]).run().single
        profile_set.add(profile_task_result(result))
    return profile_set


def _profile_rows(
    label: str, profile: "ThrottleProfile | ThrottleProfileSet", extra: Dict[str, float]
) -> Dict[str, float]:
    intervals = profile.throttle_intervals_s()
    durations = profile.throttle_durations_s()
    obtained = profile.obtained_cpu_times_s()

    def _stats(values: Sequence[float], prefix: str) -> Dict[str, float]:
        if not values:
            return {f"{prefix}_mean_ms": float("nan"), f"{prefix}_p50_ms": float("nan")}
        arr = np.asarray(values)
        return {
            f"{prefix}_mean_ms": float(np.mean(arr)) * 1e3,
            f"{prefix}_p50_ms": float(np.median(arr)) * 1e3,
        }

    row: Dict[str, float] = {"configuration": label}  # type: ignore[dict-item]
    row.update(_stats(intervals, "throttle_interval"))
    row.update(_stats(obtained, "obtained_cpu"))
    row.update(_stats(durations, "throttle_duration"))
    row["num_throttles"] = float(profile.num_throttles)
    row.update(extra)
    return row


def figure12_provider_profiles(
    configurations: Optional[Sequence[Tuple[str, str, float]]] = None,
    exec_duration_s: float = 5.0,
    invocations: int = 10,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Figure 12(a)-(c): profiles of AWS-, GCP- and IBM-like scheduling settings.

    ``configurations`` is a sequence of (label, provider key, vCPU fraction);
    the default covers the allocations shown in the figure.
    """
    if configurations is None:
        configurations = (
            ("aws_128mb_0.072vcpu", "aws_lambda", 0.072),
            ("aws_442mb_0.25vcpu", "aws_lambda", 0.25),
            ("aws_884mb_0.5vcpu", "aws_lambda", 0.5),
            ("gcp_0.08vcpu", "gcp_run_functions", 0.08),
            ("gcp_0.25vcpu", "gcp_run_functions", 0.25),
            ("gcp_0.5vcpu", "gcp_run_functions", 0.5),
            ("ibm_0.25vcpu", "ibm_code_engine", 0.25),
            ("ibm_0.5vcpu", "ibm_code_engine", 0.5),
        )
    rows: List[Dict[str, float]] = []
    for index, (label, provider, fraction) in enumerate(configurations):
        preset = PROVIDER_SCHED_PRESETS[provider]
        profile = profile_configuration(
            vcpu_fraction=fraction,
            period_s=preset.period_s,
            tick_hz=preset.tick_hz,
            exec_duration_s=exec_duration_s,
            invocations=invocations,
            seed=seed + index,
        )
        rows.append(
            _profile_rows(
                label,
                profile,
                {
                    "provider": provider,  # type: ignore[dict-item]
                    "vcpu_fraction": fraction,
                    "period_ms": preset.period_s * 1e3,
                    "tick_hz": float(preset.tick_hz),
                },
            )
        )
    return rows


def figure12_cfs_vs_eevdf(
    vcpu_fraction: float = 0.072,
    period_s: float = 0.020,
    tick_frequencies: Sequence[int] = (250, 1000),
    exec_duration_s: float = 5.0,
    invocations: int = 10,
    seed: int = 40,
) -> List[Dict[str, float]]:
    """Figure 12(d): CFS versus EEVDF at different timer frequencies (P20 Q1.45)."""
    rows: List[Dict[str, float]] = []
    index = 0
    for policy in (SchedulingPolicy.CFS, SchedulingPolicy.EEVDF):
        for tick_hz in tick_frequencies:
            profile = profile_configuration(
                vcpu_fraction=vcpu_fraction,
                period_s=period_s,
                tick_hz=tick_hz,
                policy=policy,
                exec_duration_s=exec_duration_s,
                invocations=invocations,
                seed=seed + index,
            )
            quota_ms = vcpu_fraction * period_s * 1e3
            obtained = profile.obtained_cpu_times_s()
            # Mean relative overrun: how far the obtained CPU time between
            # throttles exceeds the configured quota, averaged over bursts.
            overruns = [max(0.0, o * 1e3 - quota_ms) / quota_ms for o in obtained]
            mean_overrun_ratio = float(np.mean(overruns)) if overruns else float("nan")
            rows.append(
                _profile_rows(
                    f"{policy.value}_{tick_hz}hz",
                    profile,
                    {
                        "policy": policy.value,  # type: ignore[dict-item]
                        "tick_hz": float(tick_hz),
                        "quota_ms": quota_ms,
                        "mean_overrun_ratio": mean_overrun_ratio,
                    },
                )
            )
            index += 1
    return rows


# ----------------------------------------------------------------------
# Table 3: parameter inference from observed profiles
# ----------------------------------------------------------------------


def _infer_base_interval_ms(
    values_ms: Sequence[float],
    candidates_ms: Sequence[float],
    tolerance: float = 0.08,
    min_value_ms: float = 0.5,
) -> float:
    """Infer the base interval whose integer multiples best explain the observations.

    Among candidates whose mean relative deviation from integer multiples is
    within ``tolerance``, the *largest* one is returned, so a 20 ms pattern is
    not explained away as 20 x 1 ms.  When none fits, the candidate with the
    smallest deviation wins.
    """
    observations = np.asarray([v for v in values_ms if v > min_value_ms])
    if observations.size == 0:
        return float("nan")
    errors: Dict[float, float] = {}
    for candidate in candidates_ms:
        multiples = np.round(observations / candidate)
        multiples[multiples < 1] = 1
        errors[candidate] = float(np.mean(np.abs(observations - multiples * candidate) / candidate))
    fitting = [candidate for candidate, error in errors.items() if error <= tolerance]
    if fitting:
        return max(fitting)
    return min(errors, key=lambda candidate: errors[candidate])


def _ks_distance(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (no scipy dependency)."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        return float("inf")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def infer_scheduling_parameters_by_matching(
    profile: "ThrottleProfile | ThrottleProfileSet",
    vcpu_fraction: float,
    period_candidates_ms: Sequence[float] = (5.0, 10.0, 20.0, 25.0, 50.0, 100.0),
    tick_candidates_hz: Sequence[int] = (100, 250, 1000),
    reference_exec_duration_s: float = 2.0,
    reference_invocations: int = 4,
    seed: int = 97,
) -> Dict[str, float]:
    """Infer scheduling parameters by matching distributions against reference runs.

    This mirrors the paper's methodology: the observed throttle-interval and
    obtained-CPU distributions are compared (KS distance) against local runs
    with known (period, CONFIG_HZ) settings, and the best-matching setting is
    reported.  The period is first narrowed with a closed-form fit (the
    throttle intervals are integer multiples of the enforcement period,
    because runtime is only refilled at period boundaries), then every
    tick candidate is simulated as a reference at that period.
    """
    period_ms = _infer_base_interval_ms(
        [v * 1e3 for v in profile.throttle_intervals_s()], period_candidates_ms
    )
    if period_ms != period_ms:  # NaN: no throttles observed
        return {"period_ms": float("nan"), "tick_hz": float("nan")}
    observed_obtained = profile.obtained_cpu_times_s()
    observed_intervals = profile.throttle_intervals_s()
    observed_diffs = (
        profile.obtained_cpu_diffs_s() if hasattr(profile, "obtained_cpu_diffs_s") else []
    )
    best_tick = float("nan")
    best_distance = float("inf")
    for index, tick_hz in enumerate(tick_candidates_hz):
        reference = profile_configuration(
            vcpu_fraction=vcpu_fraction,
            period_s=period_ms * 1e-3,
            tick_hz=tick_hz,
            exec_duration_s=reference_exec_duration_s,
            invocations=reference_invocations,
            seed=seed + index,
        )
        distance = _ks_distance(observed_obtained, reference.obtained_cpu_times_s()) + 0.5 * _ks_distance(
            observed_intervals, reference.throttle_intervals_s()
        )
        if observed_diffs:
            # The step pattern of obtained CPU time is the sharpest CONFIG_HZ
            # signature, so weight it when the observed profile provides it.
            distance += _ks_distance(observed_diffs, reference.obtained_cpu_diffs_s())
        if distance < best_distance:
            best_distance = distance
            best_tick = float(tick_hz)
    return {"period_ms": period_ms, "tick_hz": best_tick, "match_distance": best_distance}


def table3_inference(
    exec_duration_s: float = 5.0,
    invocations: int = 10,
    vcpu_fraction: float = 0.25,
    seed: int = 17,
) -> List[Dict[str, float]]:
    """Table 3: infer each provider's scheduling parameters from simulated profiles."""
    rows: List[Dict[str, float]] = []
    for index, (provider, preset) in enumerate(PROVIDER_SCHED_PRESETS.items()):
        profile = profile_configuration(
            vcpu_fraction=vcpu_fraction,
            period_s=preset.period_s,
            tick_hz=preset.tick_hz,
            exec_duration_s=exec_duration_s,
            invocations=invocations,
            seed=seed + index,
        )
        inferred = infer_scheduling_parameters_by_matching(
            profile,
            vcpu_fraction=vcpu_fraction,
            reference_exec_duration_s=exec_duration_s,
            reference_invocations=max(invocations, 4),
        )
        paper = PAPER_TABLE3[provider]
        rows.append(
            {
                "provider": provider,  # type: ignore[dict-item]
                "inferred_period_ms": inferred["period_ms"],
                "inferred_tick_hz": inferred["tick_hz"],
                "paper_period_ms": paper["period_ms"],
                "paper_tick_hz": float(paper["tick_hz"]),
                "configured_period_ms": preset.period_s * 1e3,
                "configured_tick_hz": float(preset.tick_hz),
            }
        )
    return rows
