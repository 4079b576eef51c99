"""Synthetic Huawei-like serverless trace generator.

The paper's billing-model analysis (§2.3-§2.5) runs over the Huawei Cloud
production FaaS trace.  That trace is proprietary, so this module generates a
synthetic population of functions and requests calibrated to the summary
statistics the paper reports:

- mean wall-clock execution duration ~58.19 ms with a heavy right tail,
- mean consumed CPU time ~51.8 ms across CPU-reporting requests,
- more than 65% of requests using less than 50% of allotted CPU and ~76% of
  requests using less than half the allotted memory (Figure 3),
- a moderate CPU/memory utilisation correlation (Pearson ~0.55),
- discrete resource flavors (fixed vCPU-memory combos) as offered by Huawei
  Function Graph,
- traceable cold starts in which ~42% of initialisations consume at least as
  many billable resources as all subsequent requests in the sandbox (Figure 4).

The generator is deterministic given a seed, which keeps every downstream
experiment reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.traces.schema import (
    ColdStartRecord,
    FunctionProfile,
    RequestRecord,
    ResourceUsage,
    Trace,
)

__all__ = ["TraceGeneratorConfig", "TraceGenerator", "HUAWEI_FLAVORS"]


#: Discrete vCPU / memory flavors modelled after Huawei Function Graph's fixed
#: CPU-memory combinations (vCPUs, memory in GB).  The paper notes Huawei
#: offers fixed combos rather than fine-grained knobs (Table 1).
HUAWEI_FLAVORS: Tuple[Tuple[float, float], ...] = (
    (0.1, 0.128),
    (0.2, 0.256),
    (0.3, 0.512),
    (0.5, 0.768),
    (0.67, 1.0),
    (1.0, 1.769),
    (1.5, 2.0),
    (2.0, 4.0),
)


@dataclass
class TraceGeneratorConfig:
    """Configuration of the synthetic trace generator.

    The defaults are calibrated so that the generated population matches the
    aggregate statistics reported in the paper for the Huawei trace.

    Attributes:
        num_functions: number of distinct functions in the population.
        num_requests: total number of request records to generate.
        seed: PRNG seed; the same seed always yields the identical trace.
        mean_duration_s: target mean wall-clock execution duration (paper: 58.19 ms).
        duration_sigma: sigma of the log-normal duration distribution (per function).
        mean_cpu_utilization: population mean of per-function CPU utilisation.
        mean_memory_utilization: population mean of per-function memory utilisation.
        utilization_correlation: target correlation between per-request CPU and
            memory utilisation (paper: Pearson ~0.552).
        cold_start_fraction: fraction of requests that are cold starts.
        mean_init_duration_s: mean sandbox initialisation duration.
        duration_floor_s: minimum request duration (the paper analyses requests
            with at least 1 ms of execution for its rounding study).
        trace_span_s: wall-clock length of the generated trace window.
        flavors: the discrete (vCPU, memory GB) combinations functions use.
    """

    num_functions: int = 200
    num_requests: int = 50_000
    seed: int = 2026
    mean_duration_s: float = 0.05819
    duration_sigma: float = 1.1
    mean_cpu_utilization: float = 0.42
    mean_memory_utilization: float = 0.38
    utilization_correlation: float = 0.55
    cold_start_fraction: float = 0.01
    mean_init_duration_s: float = 0.9
    duration_floor_s: float = 0.001
    trace_span_s: float = 3600.0
    flavors: Sequence[Tuple[float, float]] = field(default_factory=lambda: HUAWEI_FLAVORS)

    def __post_init__(self) -> None:
        if self.num_functions <= 0 or self.num_requests <= 0:
            raise ValueError("num_functions and num_requests must be positive")
        if not 0 <= self.cold_start_fraction <= 1:
            raise ValueError("cold_start_fraction must be in [0, 1]")
        if not -1 <= self.utilization_correlation <= 1:
            raise ValueError("utilization_correlation must be in [-1, 1]")
        if self.mean_duration_s <= 0 or self.mean_init_duration_s <= 0:
            raise ValueError("durations must be positive")
        if not self.flavors:
            raise ValueError("at least one flavor is required")


class TraceGenerator:
    """Generate synthetic serverless traces with Huawei-like statistics."""

    def __init__(self, config: Optional[TraceGeneratorConfig] = None) -> None:
        self.config = config or TraceGeneratorConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def generate(self) -> Trace:
        """Generate the full trace (functions, requests, and cold-start records)."""
        functions = self._generate_functions()
        requests, cold_starts = self._generate_requests(functions)
        return Trace(requests, cold_starts, functions)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _generate_functions(self) -> List[FunctionProfile]:
        cfg = self.config
        rng = self._rng
        functions: List[FunctionProfile] = []
        # Per-function mean durations follow a log-normal whose population mean
        # matches cfg.mean_duration_s.  Individual functions therefore range
        # from sub-millisecond to multi-second, as in the production trace.
        mu = math.log(cfg.mean_duration_s) - 0.5 * cfg.duration_sigma**2
        mean_durations = rng.lognormal(mean=mu, sigma=cfg.duration_sigma, size=cfg.num_functions)
        # Longer-running functions tend to be deployed with larger flavors in
        # production; bias flavor choice by the duration rank so that the mean
        # consumed CPU time is not dominated by tiny allocations.
        duration_ranks = np.argsort(np.argsort(mean_durations)) / max(cfg.num_functions - 1, 1)
        for i in range(cfg.num_functions):
            flavor_bias = 0.35 + 0.6 * duration_ranks[i]
            flavor_index = int(
                np.clip(
                    round(flavor_bias * (len(cfg.flavors) - 1) + rng.normal(0.0, 1.0)),
                    0,
                    len(cfg.flavors) - 1,
                )
            )
            vcpus, mem_gb = cfg.flavors[flavor_index]
            cpu_util = float(np.clip(rng.beta(2.0, 2.8), 0.01, 0.99))
            mem_util = float(np.clip(rng.beta(2.0, 3.2), 0.01, 0.99))
            functions.append(
                FunctionProfile(
                    function_id=f"fn-{i:05d}",
                    alloc_vcpus=vcpus,
                    alloc_memory_gb=mem_gb,
                    mean_duration_s=max(float(mean_durations[i]), cfg.duration_floor_s),
                    mean_cpu_utilization=cpu_util,
                    mean_memory_utilization=mem_util,
                    workload_class="generic",
                )
            )
        return functions

    def _correlated_utilizations(
        self, n: int, mean_cpu: float, mean_mem: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw per-request CPU/memory utilisation pairs with the configured correlation.

        Utilisations are produced through a Gaussian copula: correlated standard
        normals are mapped through the normal CDF to uniforms and then scaled
        around the per-function mean utilisation.
        """
        # Per-function scaling, the skew transform and clipping downstream all
        # attenuate the copula correlation; boost the latent correlation so the
        # *observed* request-level Pearson lands near the configured target.
        rho = float(np.clip(self.config.utilization_correlation * 1.4, -0.97, 0.97))
        rng = self._rng
        cov = np.array([[1.0, rho], [rho, 1.0]])
        normals = rng.multivariate_normal(mean=[0.0, 0.0], cov=cov, size=n)
        # Normal CDF via the error function keeps us free of scipy here.
        uniforms = 0.5 * (1.0 + np.vectorize(math.erf)(normals / math.sqrt(2.0)))
        # Power transform: production utilisation is right-skewed -- most
        # requests use well under half of their allocation (Figure 3), while a
        # minority run close to the limit.  u^k has mean 1/(k+1).
        cpu_skew, mem_skew = 1.8, 2.0
        cpu_base = uniforms[:, 0] ** cpu_skew
        mem_base = uniforms[:, 1] ** mem_skew
        cpu = np.clip(cpu_base * (mean_cpu / (1.0 / (cpu_skew + 1.0))), 0.01, 1.0)
        mem = np.clip(mem_base * (mean_mem / (1.0 / (mem_skew + 1.0))), 0.01, 1.0)
        return cpu, mem

    def _generate_requests(
        self, functions: List[FunctionProfile]
    ) -> Tuple[List[RequestRecord], List[ColdStartRecord]]:
        cfg = self.config
        rng = self._rng

        # Requests are distributed over functions with a Zipf-like popularity
        # skew: a few functions receive most of the traffic, which matches the
        # long-tail shape of production FaaS workloads.
        popularity = rng.zipf(1.5, size=cfg.num_functions).astype(float)
        popularity /= popularity.sum()
        function_choices = rng.choice(cfg.num_functions, size=cfg.num_requests, p=popularity)

        arrivals = np.sort(rng.uniform(0.0, cfg.trace_span_s, size=cfg.num_requests))
        cold_flags = rng.random(cfg.num_requests) < cfg.cold_start_fraction
        # Draw all correlated utilisation pairs up front: one vectorised call is
        # orders of magnitude faster than per-request sampling for large traces.
        cpu_util_all, mem_util_all = self._correlated_utilizations(
            cfg.num_requests, cfg.mean_cpu_utilization, cfg.mean_memory_utilization
        )
        # Draw all request durations up front and rescale so the empirical mean
        # matches the configured target regardless of which functions happened
        # to receive most of the (Zipf-skewed) traffic.
        profile_means = np.array(
            [functions[int(f)].mean_duration_s for f in function_choices], dtype=float
        )
        durations_all = rng.lognormal(np.log(profile_means) - 0.5 * 0.5**2, 0.5)
        durations_all = np.maximum(durations_all, cfg.duration_floor_s)
        mean_now = float(durations_all.mean())
        if mean_now > 0:
            durations_all = np.maximum(
                durations_all * (cfg.mean_duration_s / mean_now), cfg.duration_floor_s
            )

        # Per-request usage: the population-level utilisation draw scaled by
        # the function's own mean (so distinct functions keep distinct
        # profiles), times the function's allocation.
        profiles = np.array([
            (f.mean_cpu_utilization, f.mean_memory_utilization, f.alloc_vcpus, f.alloc_memory_gb)
            for f in functions
        ])[function_choices]
        cpu_util = np.clip(cpu_util_all * (profiles[:, 0] / cfg.mean_cpu_utilization), 0.01, 1.0)
        mem_util = np.clip(mem_util_all * (profiles[:, 1] / cfg.mean_memory_utilization), 0.01, 1.0)
        cpu_seconds_all = (cpu_util * profiles[:, 2] * durations_all).tolist()
        memory_gb_all = (mem_util * profiles[:, 3]).tolist()
        durations = durations_all.tolist()
        arrival_times = arrivals.tolist()
        cold_list = cold_flags.tolist()

        requests: List[RequestRecord] = []
        cold_starts: List[ColdStartRecord] = []
        pod_counter = 0
        # Track which pod currently serves each function, so warm requests are
        # attributed to the pod created by the most recent cold start.
        active_pod: Dict[int, str] = {}
        cold_start_index: Dict[str, int] = {}

        for i, fn_index in enumerate(function_choices.tolist()):
            profile = functions[fn_index]
            is_cold = cold_list[i] or fn_index not in active_pod
            if is_cold:
                pod_id = f"pod-{pod_counter:07d}"
                pod_counter += 1
                active_pod[fn_index] = pod_id
                init_duration = float(
                    np.clip(rng.lognormal(math.log(cfg.mean_init_duration_s), 0.6), 0.05, 30.0)
                )
                cold_starts.append(
                    ColdStartRecord(
                        pod_id=pod_id,
                        function_id=profile.function_id,
                        init_duration_s=init_duration,
                        alloc_vcpus=profile.alloc_vcpus,
                        alloc_memory_gb=profile.alloc_memory_gb,
                        subsequent_request_ids=[],
                    )
                )
                cold_start_index[pod_id] = len(cold_starts) - 1
            else:
                init_duration = 0.0
            pod_id = active_pod[fn_index]

            record = RequestRecord(
                request_id=f"req-{i:08d}",
                function_id=profile.function_id,
                pod_id=pod_id,
                arrival_s=arrival_times[i],
                duration_s=durations[i],
                usage=ResourceUsage(cpu_seconds=cpu_seconds_all[i], memory_gb=memory_gb_all[i]),
                alloc_vcpus=profile.alloc_vcpus,
                alloc_memory_gb=profile.alloc_memory_gb,
                cold_start=is_cold,
                init_duration_s=init_duration if is_cold else 0.0,
            )
            requests.append(record)

        # Attach subsequent request ids to each cold start (frozen dataclass:
        # rebuild the record with the collected request list).
        pod_requests: Dict[str, List[str]] = {}
        for record in requests:
            pod_requests.setdefault(record.pod_id, []).append(record.request_id)
        for pod_id, index in cold_start_index.items():
            existing = cold_starts[index]
            cold_starts[index] = ColdStartRecord(
                pod_id=existing.pod_id,
                function_id=existing.function_id,
                init_duration_s=existing.init_duration_s,
                alloc_vcpus=existing.alloc_vcpus,
                alloc_memory_gb=existing.alloc_memory_gb,
                subsequent_request_ids=tuple(pod_requests.get(pod_id, [])),
            )

        return requests, cold_starts
