"""Scheduling pick policies: CFS (vruntime order) and EEVDF (virtual deadlines).

For the paper's experiments the policy mostly matters through two knobs:

- how tasks are ordered when several are runnable on the same CPU (weighted
  vruntime for CFS, earliest eligible virtual deadline for EEVDF), and
- the maximum uninterrupted run burst before the scheduler re-evaluates.  CFS
  re-evaluates at scheduler ticks; EEVDF additionally bounds each burst by the
  task's allotted slice (the virtual-deadline mechanism), which is why the
  paper observes slightly smaller quota overruns under EEVDF at the same timer
  frequency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Sequence, Tuple

from repro.sched.task import SimTask

__all__ = ["SchedulingPolicy", "PolicyParameters", "pick_key", "pick_next", "max_burst_s"]

#: Kernel default minimal preemption granularity for CPU-bound tasks (750 us),
#: referenced by the paper's Algorithm 1 threshold discussion.
MIN_PREEMPTION_GRANULARITY_S = 0.00075

#: EEVDF base slice (sysctl_sched_base_slice) used to bound run bursts.
EEVDF_BASE_SLICE_S = 0.003


class SchedulingPolicy(str, enum.Enum):
    """The two kernel schedulers the paper studies."""

    CFS = "cfs"
    EEVDF = "eevdf"


@dataclass(frozen=True)
class PolicyParameters:
    """Tunable policy parameters (exposed for ablation benchmarks)."""

    policy: SchedulingPolicy = SchedulingPolicy.CFS
    eevdf_base_slice_s: float = EEVDF_BASE_SLICE_S

    def __post_init__(self) -> None:
        if self.eevdf_base_slice_s <= 0:
            raise ValueError("eevdf_base_slice_s must be positive")


def pick_key(params: PolicyParameters) -> Callable[[SimTask], Tuple[float, str]]:
    """The key :func:`pick_next` minimises, built once per policy; names break ties."""
    if params.policy is SchedulingPolicy.CFS:
        return attrgetter("vruntime", "name")
    # EEVDF: virtual deadline = vruntime + slice / weight.
    slice_s = params.eevdf_base_slice_s
    return lambda task: (task.vruntime + slice_s / task.weight, task.name)


def pick_next(runnable: Sequence[SimTask], params: PolicyParameters, now_s: float) -> Optional[SimTask]:
    """Pick the next task to run among runnable tasks on one CPU.

    CFS picks the task with the smallest weighted vruntime.  EEVDF picks the
    eligible task with the earliest virtual deadline; with equal weights and
    the simulator's full-decay eligibility this reduces to the smallest
    ``vruntime + slice/weight``, which preserves EEVDF's preference for tasks
    with shorter slices.
    """
    if not runnable:
        return None
    return min(runnable, key=pick_key(params))


def max_burst_s(params: PolicyParameters) -> Optional[float]:
    """Maximum uninterrupted run burst the policy allows between re-evaluations.

    ``None`` means the burst is bounded only by scheduler ticks and bandwidth
    events (the CFS behaviour).  EEVDF bounds bursts by the base slice, which
    adds accounting points and slightly reduces quota overrun.
    """
    if params.policy is SchedulingPolicy.EEVDF:
        return params.eevdf_base_slice_s
    return None
