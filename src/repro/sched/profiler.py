"""User-space scheduler profiling (the paper's Algorithm 1).

The paper profiles cloud schedulers from inside the sandbox: a spin loop reads
the monotonic clock and records any jump larger than 500 us as a throttle
event (the default minimal preemption granularity for CPU-bound tasks is
750 us, so jumps of this size indicate involuntary descheduling).  The
profiler here applies exactly that detection rule to the run timeline produced
by the simulator (or, via :func:`profile_live`, to a real spin loop on the
host, which is how the paper's in-house VM runs were collected).

From the detected events the profile derives the three distributions of the
paper's Figure 12: throttle intervals, throttle durations, and the CPU time
obtained between consecutive throttles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.numeric import fold
from repro.sched.engine import TaskResult

__all__ = [
    "ThrottleEvent",
    "ThrottleProfile",
    "ThrottleProfileSet",
    "profile_task_result",
    "profile_live",
]

#: Detection threshold of Algorithm 1 (500 us monotonic-clock jump).
DETECTION_THRESHOLD_S = 500e-6


@dataclass(frozen=True)
class ThrottleEvent:
    """One detected throttle: when it was detected and how long the clock jumped."""

    detected_at_s: float
    duration_s: float


@dataclass
class ThrottleProfile:
    """The Algorithm-1 output for one profiled execution."""

    events: List[ThrottleEvent] = field(default_factory=list)
    #: Total wall-clock span profiled.
    span_s: float = 0.0
    #: Total CPU time obtained during the span.
    cpu_obtained_s: float = 0.0

    @property
    def num_throttles(self) -> int:
        return len(self.events)

    def throttle_intervals_s(self) -> List[float]:
        """Time between consecutive throttle detections (Figure 12, left column)."""
        detections = [e.detected_at_s for e in self.events]
        return [b - a for a, b in zip(detections, detections[1:])]

    def throttle_durations_s(self) -> List[float]:
        """Durations of the detected clock jumps (Figure 12, right column)."""
        return [e.duration_s for e in self.events]

    def obtained_cpu_times_s(self) -> List[float]:
        """CPU time obtained between consecutive throttles (Figure 12, middle column).

        Computed as the gap between detections minus the throttled portion,
        i.e. the amount of runtime the task managed to consume before being
        throttled again.
        """
        values: List[float] = []
        for previous, current in zip(self.events, self.events[1:]):
            running = (current.detected_at_s - previous.detected_at_s) - current.duration_s
            values.append(max(running, 0.0))
        return values

    def summary(self) -> Dict[str, float]:
        intervals = self.throttle_intervals_s()
        durations = self.throttle_durations_s()
        obtained = self.obtained_cpu_times_s()
        def _mean(xs: Sequence[float]) -> float:
            return fold(xs) / len(xs) if xs else float("nan")
        return {
            "num_throttles": float(self.num_throttles),
            "span_s": self.span_s,
            "cpu_obtained_s": self.cpu_obtained_s,
            "mean_throttle_interval_s": _mean(intervals),
            "mean_throttle_duration_s": _mean(durations),
            "mean_obtained_cpu_s": _mean(obtained),
            "cpu_share": (self.cpu_obtained_s / self.span_s) if self.span_s > 0 else float("nan"),
        }


@dataclass
class ThrottleProfileSet:
    """Aggregated Algorithm-1 profiles from repeated invocations of one configuration.

    The paper profiles each configuration with hundreds of invocations and
    studies the pooled distributions.  Intervals and obtained-CPU values are
    computed *within* each invocation and then concatenated, so no spurious
    cross-invocation gaps appear in the distributions.
    """

    profiles: List[ThrottleProfile] = field(default_factory=list)

    def add(self, profile: ThrottleProfile) -> None:
        self.profiles.append(profile)

    @property
    def num_throttles(self) -> int:
        return sum(p.num_throttles for p in self.profiles)

    @property
    def span_s(self) -> float:
        return fold(p.span_s for p in self.profiles)

    @property
    def cpu_obtained_s(self) -> float:
        return fold(p.cpu_obtained_s for p in self.profiles)

    def throttle_intervals_s(self) -> List[float]:
        values: List[float] = []
        for profile in self.profiles:
            values.extend(profile.throttle_intervals_s())
        return values

    def throttle_durations_s(self) -> List[float]:
        values: List[float] = []
        for profile in self.profiles:
            values.extend(profile.throttle_durations_s())
        return values

    def obtained_cpu_times_s(self) -> List[float]:
        values: List[float] = []
        for profile in self.profiles:
            values.extend(profile.obtained_cpu_times_s())
        return values

    def obtained_cpu_diffs_s(self) -> List[float]:
        """Absolute differences between consecutive obtained-CPU values within each invocation.

        Runtime accounting happens at scheduler ticks, so these differences are
        (noisy) integer multiples of the tick interval -- the signal the
        Table 3 inference uses to recover ``CONFIG_HZ``.
        """
        diffs: List[float] = []
        for profile in self.profiles:
            obtained = profile.obtained_cpu_times_s()
            for previous, current in zip(obtained, obtained[1:]):
                diffs.append(abs(current - previous))
        return diffs

    def summary(self) -> Dict[str, float]:
        intervals = self.throttle_intervals_s()
        durations = self.throttle_durations_s()
        obtained = self.obtained_cpu_times_s()

        def _mean(xs: Sequence[float]) -> float:
            return fold(xs) / len(xs) if xs else float("nan")

        return {
            "num_invocations": float(len(self.profiles)),
            "num_throttles": float(self.num_throttles),
            "span_s": self.span_s,
            "cpu_obtained_s": self.cpu_obtained_s,
            "mean_throttle_interval_s": _mean(intervals),
            "mean_throttle_duration_s": _mean(durations),
            "mean_obtained_cpu_s": _mean(obtained),
            "cpu_share": (self.cpu_obtained_s / self.span_s) if self.span_s > 0 else float("nan"),
        }


def profile_task_result(
    result: TaskResult, threshold_s: float = DETECTION_THRESHOLD_S
) -> ThrottleProfile:
    """Apply Algorithm 1's detection rule to a simulated task's run timeline.

    While the task is running, the spin loop observes monotonic time advancing
    continuously; whenever the task is off-CPU for more than ``threshold_s``
    the next loop iteration observes a clock jump and records it.
    """
    segments: List[Tuple[float, float]] = sorted(result.run_segments)
    profile = ThrottleProfile()
    if not segments:
        return profile
    profile.span_s = segments[-1][1] - segments[0][0]
    profile.cpu_obtained_s = fold(end - start for start, end in segments)
    for (prev_start, prev_end), (start, end) in zip(segments, segments[1:]):
        gap = start - prev_end
        if gap >= threshold_s:
            profile.events.append(ThrottleEvent(detected_at_s=start, duration_s=gap))
    return profile


def profile_live(exec_duration_s: float, threshold_s: float = DETECTION_THRESHOLD_S) -> ThrottleProfile:
    """Run Algorithm 1 for real on the current host.

    This is the literal pseudocode of the paper: spin on the monotonic clock
    for ``exec_duration_s`` and record every jump above ``threshold_s``.  On an
    unconstrained host this typically detects only occasional preemptions; run
    it inside a CPU-limited cgroup/container to observe bandwidth throttling.
    """
    if exec_duration_s <= 0:
        raise ValueError("exec_duration_s must be positive")
    start = time.monotonic()
    last_checkpoint = start
    events: List[ThrottleEvent] = []
    while True:
        now = time.monotonic()
        if now - last_checkpoint >= threshold_s:
            events.append(ThrottleEvent(detected_at_s=now - start, duration_s=now - last_checkpoint))
        last_checkpoint = now
        if now - start >= exec_duration_s:
            break
    span = time.monotonic() - start
    throttled = fold(e.duration_s for e in events)
    return ThrottleProfile(events=events, span_s=span, cpu_obtained_s=max(span - throttled, 0.0))
