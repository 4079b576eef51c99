"""Concurrency/CPU-target autoscaler with a metric aggregation window (paper §3.1).

Platforms with the multi-concurrency serving model scale the number of
sandboxes based on aggregated metrics (Knative's default stable window is
60 s; GCP Cloud Run targets 60% CPU utilisation and per-instance concurrency).
Because metrics are aggregated over a window, scaling "does not begin until
about 40 s" into a traffic burst in the paper's measurement -- the aggregation
lag is the mechanism behind Figure 6 (right).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.numeric import fold
from repro.sim.kernel import PeriodicProcess

__all__ = ["AutoscalerConfig", "Autoscaler", "AutoscalerProcess"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Scaling policy parameters.

    Attributes:
        target_cpu_utilization: desired average CPU utilisation per sandbox
            (GCP default 0.6).
        target_concurrency_fraction: desired fraction of the per-sandbox
            concurrency limit in use (Knative's default target utilisation).
        metric_window_s: aggregation window over which metrics are averaged
            before a scaling decision (Knative stable window: 60 s).
        evaluation_interval_s: how often the autoscaler re-evaluates.
        min_instances: lower bound on instance count (0 allows scale-to-zero).
        max_instances: upper bound on instance count.
        scale_down_delay_s: how long low utilisation must persist before
            scaling in (also acts as the keep-alive scale-down delay).
        panic_window_s: short window used to detect sudden load spikes
            (Knative's panic window, default 6 s).
        panic_threshold: when the short-window demand exceeds this multiple of
            the current capacity, the autoscaler scales on the short window
            immediately instead of the stable window (Knative default 2.0).
            Set to 0 to disable panic mode.
    """

    target_cpu_utilization: float = 0.6
    target_concurrency_fraction: float = 0.7
    metric_window_s: float = 60.0
    evaluation_interval_s: float = 2.0
    min_instances: int = 0
    max_instances: int = 1000
    scale_down_delay_s: float = 60.0
    panic_window_s: float = 6.0
    panic_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.target_cpu_utilization <= 1:
            raise ValueError("target_cpu_utilization must be in (0, 1]")
        if not 0 < self.target_concurrency_fraction <= 1:
            raise ValueError("target_concurrency_fraction must be in (0, 1]")
        if self.metric_window_s <= 0 or self.evaluation_interval_s <= 0:
            raise ValueError("window and evaluation interval must be positive")
        if self.min_instances < 0 or self.max_instances < max(self.min_instances, 1):
            raise ValueError("invalid instance bounds")
        if self.panic_window_s < 0 or self.panic_threshold < 0:
            raise ValueError("panic parameters must be >= 0")


class Autoscaler:
    """Window-averaged metric autoscaler used by the platform simulator."""

    def __init__(self, config: AutoscalerConfig, max_concurrency: int, alloc_vcpus: float) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if alloc_vcpus <= 0:
            raise ValueError("alloc_vcpus must be positive")
        self.config = config
        self.max_concurrency = max_concurrency
        self.alloc_vcpus = alloc_vcpus
        #: (timestamp, total active requests, total cpu demand rate, instance count) samples.
        self._samples: Deque[Tuple[float, float, float, int]] = deque()
        #: When the current wish to scale in first appeared (None: no such wish).
        self._last_scale_down_candidate: Optional[float] = None

    def observe(self, now_s: float, active_requests: float, busy_vcpus: float, instances: int) -> None:
        """Record one metric sample (the simulator calls this every evaluation tick)."""
        self._samples.append((now_s, float(active_requests), busy_vcpus, max(instances, 0)))
        self._trim(now_s)

    def _trim(self, now_s: float) -> None:
        """Drop the samples older than the metric window: the deque *is* the window."""
        cutoff = now_s - self.config.metric_window_s
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def desired_instances(self, now_s: float, current_instances: int) -> int:
        """Compute the desired instance count from window-averaged metrics."""
        cfg = self.config
        self._trim(now_s)
        window = self._samples
        if not window:
            return max(current_instances, cfg.min_instances)
        avg_active = fold(s[1] for s in window) / len(window)
        avg_busy_vcpus = fold(s[2] for s in window) / len(window)

        # Concurrency-based desired count: keep per-instance concurrency below
        # target_concurrency_fraction * max_concurrency.
        per_instance_target = cfg.target_concurrency_fraction * self.max_concurrency
        desired_by_concurrency = avg_active / per_instance_target if per_instance_target > 0 else 0.0

        # CPU-based desired count: keep per-instance CPU utilisation below target.
        per_instance_cpu_target = cfg.target_cpu_utilization * self.alloc_vcpus
        desired_by_cpu = avg_busy_vcpus / per_instance_cpu_target if per_instance_cpu_target > 0 else 0.0

        desired = max(desired_by_concurrency, desired_by_cpu)

        # Panic mode (Knative-style): a sudden spike measured over the short
        # window overrides the stable-window decision, so the platform reacts
        # within seconds rather than a full aggregation window.  CPU-target
        # scaling alone reacts slowly under overload because per-instance CPU
        # saturates at the allocation -- exactly the lag Figure 6 measures.
        if cfg.panic_threshold > 0 and cfg.panic_window_s > 0:
            # The panic samples are a suffix of the time-ordered window:
            # count them from the right, then fold them in time order.
            panic_cutoff = now_s - cfg.panic_window_s
            count = 0
            for sample in reversed(window):
                if sample[0] < panic_cutoff:
                    break
                count += 1
            if count:
                panic_active = fold(
                    s[1] for s in islice(window, len(window) - count, None)
                ) / count
                capacity = max(current_instances, 1) * per_instance_target
                if capacity > 0 and panic_active > cfg.panic_threshold * capacity:
                    desired = max(desired, panic_active / per_instance_target)

        desired_count = max(int(-(-desired // 1)), cfg.min_instances)  # ceil
        desired_count = min(desired_count, cfg.max_instances)

        if desired_count < current_instances:
            # Scale-in is damped by the scale-down delay: remember when the
            # desire to shrink first appeared and only act after the delay.
            if self._last_scale_down_candidate is None:
                self._last_scale_down_candidate = now_s
                return current_instances
            if now_s - self._last_scale_down_candidate < cfg.scale_down_delay_s:
                return current_instances
        else:
            self._last_scale_down_candidate = None
        return desired_count


class AutoscalerProcess(PeriodicProcess):
    """The autoscaler as a periodic kernel process.

    Instead of the simulator pre-scheduling one heap event per evaluation tick
    over the whole horizon, the process computes its own next evaluation time
    (a fixed evaluation-interval grid, see
    :class:`repro.sim.kernel.PeriodicProcess`) and the kernel keeps one
    self-re-arming tick for it on the heap.  The callback is called once per tick with the
    simulation time; the owning simulator supplies it and reads its own pool
    state there.  The same instance works in a standalone simulation and in
    an open-ended cluster co-simulation.
    """
