"""Units, resource kinds, and rounding helpers shared across billing models."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "GB",
    "MB",
    "MILLISECONDS",
    "ResourceKind",
    "Resource",
    "round_up",
    "apply_minimum",
    "fold",
]

#: One gigabyte expressed in GB (the canonical memory unit used throughout).
GB: float = 1.0
#: One megabyte expressed in GB.
MB: float = 1.0 / 1024.0
#: One millisecond expressed in seconds (the canonical time unit).
MILLISECONDS: float = 1.0e-3


class ResourceKind(str, enum.Enum):
    """Billable computing resources the paper's §2 analysis covers."""

    CPU = "cpu"
    MEMORY = "memory"
    STORAGE = "storage"
    NETWORK = "network"


@dataclass(frozen=True)
class Resource:
    """An amount of a billable resource.

    The unit convention is: CPU in vCPUs, memory and storage in GB, network in GB.
    """

    kind: ResourceKind
    amount: float

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError(f"resource amount must be >= 0, got {self.amount}")


def round_up(value: float, granularity: float) -> float:
    """Round ``value`` up to the next multiple of ``granularity``.

    A zero or negative granularity means "no rounding" and returns the value
    unchanged.  This is the :math:`\\lceil x / G \\rceil \\times G` operation in
    the paper's Equation (1).

    Floating-point note: values that are already within one part in 10^9 of a
    multiple are treated as exact, so ``round_up(0.3, 0.1) == 0.3`` rather than
    0.4 despite binary representation error.
    """
    if granularity is None or granularity <= 0:
        return value
    if value <= 0:
        return 0.0
    units = value / granularity
    if not math.isfinite(units):
        # A denormally small granularity cannot be represented; treat as unrounded.
        return value
    nearest = round(units)
    if abs(units - nearest) < 1e-9:
        return nearest * granularity
    return math.ceil(units) * granularity


def apply_minimum(value: float, minimum: float) -> float:
    """Apply a minimum billing cutoff: bill at least ``minimum`` whenever value is positive."""
    if minimum is None or minimum <= 0:
        return value
    if value <= 0:
        return 0.0
    return max(value, minimum)


def fold(values: Iterable[float]) -> float:
    """Sum floats left to right from ``0.0``, giving the same bits on every interpreter.

    The builtin ``sum`` compensates rounding error from Python 3.12 on.
    """
    total = 0.0
    for value in values:
        total += value
    return total
