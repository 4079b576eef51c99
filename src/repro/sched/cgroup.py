"""cgroup CPU bandwidth control: global/local runtime pools, slices, throttling.

This mirrors the kernel's ``cfs_bandwidth`` / ``cfs_rq`` runtime accounting
(`kernel/sched/fair.c`):

- the cgroup has a *global pool* refilled to ``quota`` once per ``period`` by
  an hrtimer callback,
- each CPU's runqueue has a *local pool* (``runtime_remaining``); consumed
  runtime is subtracted from it at accounting points (scheduler ticks and
  context switches),
- when the local pool is depleted it acquires up to
  ``sched_cfs_bandwidth_slice`` (default 5 ms) from the global pool,
- if the global pool cannot bring the local pool positive the runqueue is
  throttled until a later refill pays the accumulated debt.

The same structure applies to kernels with the EEVDF scheduler (the paper
notes EEVDF keeps the CFS bandwidth-control interface).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.numeric import fold

__all__ = ["BandwidthConfig", "BandwidthController", "CpuLocalPool"]

#: Kernel default for sched_cfs_bandwidth_slice_us (5 ms).
DEFAULT_BANDWIDTH_SLICE_S = 0.005
#: Local runtime at or below this many seconds counts as exhausted: it absorbs
#: the rounding left when consumed CPU time is charged against the pool.
EXHAUSTED_RUNTIME_S = 1e-9
#: How far above zero a refill lifts a throttled pool's runtime, so the pool
#: comes back (slightly) positive as the kernel's distribute_cfs_runtime does.
_REFILL_HEADROOM_S = 1e-9


@dataclass(frozen=True)
class BandwidthConfig:
    """Static CPU bandwidth control parameters of one cgroup.

    Attributes:
        period_s: enforcement period ``P`` (cpu.cfs_period_us).
        quota_s: runtime quota ``Q`` per period (cpu.cfs_quota_us); ``None``
            or a non-positive value disables bandwidth control (unlimited).
        slice_s: how much runtime a local pool acquires from the global pool
            at a time (sched_cfs_bandwidth_slice).
    """

    period_s: float
    quota_s: float
    slice_s: float = DEFAULT_BANDWIDTH_SLICE_S

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.slice_s <= 0:
            raise ValueError("slice_s must be positive")

    @property
    def enabled(self) -> bool:
        """Bandwidth control is active only with a positive, finite quota."""
        return self.quota_s is not None and self.quota_s > 0 and self.quota_s != float("inf")

    @property
    def cpu_fraction(self) -> float:
        """The CPU share the limit targets (quota / period)."""
        if not self.enabled:
            return float("inf")
        return self.quota_s / self.period_s

    @classmethod
    def for_vcpu_fraction(
        cls, vcpu_fraction: float, period_s: float, slice_s: float = DEFAULT_BANDWIDTH_SLICE_S
    ) -> "BandwidthConfig":
        """Build a config for a fractional vCPU allocation (quota = fraction x period)."""
        if vcpu_fraction <= 0:
            raise ValueError("vcpu_fraction must be positive")
        return cls(period_s=period_s, quota_s=vcpu_fraction * period_s, slice_s=slice_s)


@dataclass
class CpuLocalPool:
    """Per-CPU runtime accounting state (cfs_rq.runtime_remaining)."""

    cpu_id: int
    runtime_remaining_s: float = 0.0
    throttled: bool = False
    throttle_start_s: float = 0.0
    nr_throttled: int = 0
    throttled_time_s: float = 0.0


class BandwidthController:
    """Runtime accounting and throttling decisions for one cgroup.

    The engine calls :meth:`account` at every accounting point with the CPU
    time consumed since the previous accounting point, and :meth:`refill` at
    every period boundary.  The controller answers whether the CPU must be
    throttled and tracks throttle statistics.
    """

    def __init__(self, config: BandwidthConfig, num_cpus: int = 1) -> None:
        if num_cpus <= 0:
            raise ValueError("num_cpus must be positive")
        self.config = config
        self._enabled = config.enabled
        self.global_runtime_s: float = config.quota_s if self._enabled else float("inf")
        self.local: Dict[int, CpuLocalPool] = {
            cpu: CpuLocalPool(cpu_id=cpu) for cpu in range(num_cpus)
        }
        self.nr_periods: int = 0

    # ------------------------------------------------------------------
    # Accounting (update_curr / account_cfs_rq_runtime)
    # ------------------------------------------------------------------

    def account(self, cpu_id: int, consumed_s: float, now_s: float) -> bool:
        """Charge ``consumed_s`` of runtime against CPU ``cpu_id``.

        Returns ``True`` when the CPU must be throttled (both pools exhausted).
        """
        pool = self.local[cpu_id]
        if not self._enabled:
            return False
        pool.runtime_remaining_s -= consumed_s
        if pool.runtime_remaining_s > 0:
            return False
        self._assign_runtime(pool)
        if pool.runtime_remaining_s > 0:
            return False
        if not pool.throttled:
            pool.throttled = True
            pool.throttle_start_s = now_s
            pool.nr_throttled += 1
        return True

    def _assign_runtime(self, pool: CpuLocalPool) -> None:
        """Acquire up to one slice of runtime from the global pool (assign_cfs_rq_runtime)."""
        if self.global_runtime_s <= 0:
            return
        amount = min(self.config.slice_s, self.global_runtime_s)
        pool.runtime_remaining_s += amount
        self.global_runtime_s -= amount

    def is_throttled(self, cpu_id: int) -> bool:
        return self.local[cpu_id].throttled

    def throttle_if_exhausted(
        self, cpu_id: int, now_s: float, threshold_s: float = EXHAUSTED_RUNTIME_S
    ) -> bool:
        """Throttle the CPU when its usable runtime is (effectively) zero.

        Used by event-driven quota enforcement, which must be able to throttle
        exactly at exhaustion rather than waiting for the next accounting
        point; returns True when the CPU is (now) throttled.
        """
        pool = self.local[cpu_id]
        if not self._enabled:
            return False
        if pool.throttled:
            return True
        if pool.runtime_remaining_s <= threshold_s:
            self._assign_runtime(pool)
        if pool.runtime_remaining_s > threshold_s:
            return False
        pool.throttled = True
        pool.throttle_start_s = now_s
        pool.nr_throttled += 1
        return True

    # ------------------------------------------------------------------
    # Period refill (hrtimer callback: __refill_cfs_bandwidth_runtime +
    # distribute_cfs_runtime)
    # ------------------------------------------------------------------

    def refill(self, now_s: float) -> List[int]:
        """Refill the global pool and pay back throttled CPUs' debt.

        Returns the list of CPU ids that were unthrottled by this refill.
        Mirrors the kernel's behaviour: each throttled runqueue receives just
        enough runtime to bring its local pool (slightly) positive, as long as
        the global pool can cover it; CPUs whose debt exceeds the refreshed
        quota stay throttled and wait for later periods.
        """
        if not self._enabled:
            return []
        self.nr_periods += 1
        self.global_runtime_s = self.config.quota_s
        unthrottled: List[int] = []
        for pool in self.local.values():
            if not pool.throttled:
                continue
            needed = -pool.runtime_remaining_s + _REFILL_HEADROOM_S
            if needed <= 0:
                needed = _REFILL_HEADROOM_S
            grant = min(needed, self.global_runtime_s)
            pool.runtime_remaining_s += grant
            self.global_runtime_s -= grant
            if pool.runtime_remaining_s > 0:
                pool.throttled = False
                pool.throttled_time_s += now_s - pool.throttle_start_s
                unthrottled.append(pool.cpu_id)
        return unthrottled

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Aggregate bandwidth statistics across CPUs (cpu.stat equivalents)."""
        return {
            "nr_periods": float(self.nr_periods),
            "nr_throttled": float(sum(p.nr_throttled for p in self.local.values())),
            "throttled_time_s": fold(p.throttled_time_s for p in self.local.values()),
        }
