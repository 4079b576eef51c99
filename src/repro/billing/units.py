"""Units, resource kinds, and rounding helpers shared across billing models."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GB",
    "MB",
    "MILLISECONDS",
    "ROUND_UP_TOLERANCE",
    "ResourceKind",
    "Resource",
    "round_up",
    "apply_minimum",
]

#: One gigabyte expressed in GB (the canonical memory unit used throughout).
GB: float = 1.0
#: One megabyte expressed in GB.
MB: float = 1.0 / 1024.0
#: One millisecond expressed in seconds (the canonical time unit).
MILLISECONDS: float = 1.0e-3
#: How far, in granularity units, :func:`round_up` lets a value sit from a
#: multiple and still count as it: a bound on the representation error of
#: ``value / granularity`` (``0.3 / 0.1 == 2.9999999999999996``).
ROUND_UP_TOLERANCE: float = 1e-9


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


def round_up(value: "float | np.ndarray", granularity: float) -> "float | np.ndarray":
    """Round ``value`` up to the next multiple of ``granularity``.

    A zero or negative granularity means "no rounding" and returns the value
    unchanged.  This is the :math:`\\lceil x / G \\rceil \\times G` operation in
    the paper's Equation (1).  A float ``np.ndarray`` is rounded elementwise
    by the same IEEE operations, equal to the scalar results bit for bit.

    Floating-point note: values within :data:`ROUND_UP_TOLERANCE` units of a
    multiple are treated as exact, so ``round_up(0.3, 0.1) == 0.3`` rather than
    0.4 despite binary representation error.
    """
    if granularity is None or granularity <= 0:
        return value
    if isinstance(value, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite units: masked below
            units = value / granularity
            nearest = np.rint(units)  # ties to even, like round()
            rounded = np.where(np.abs(units - nearest) < ROUND_UP_TOLERANCE, nearest,
                               np.ceil(units)) * granularity
        return np.where(value <= 0, 0.0, np.where(np.isfinite(units), rounded, value))
    if value <= 0:
        return 0.0
    units = value / granularity
    if not math.isfinite(units):
        # A denormally small granularity cannot be represented; treat as unrounded.
        return value
    nearest = round(units)
    if abs(units - nearest) < ROUND_UP_TOLERANCE:
        return nearest * granularity
    return math.ceil(units) * granularity


def apply_minimum(value: "float | np.ndarray", minimum: float) -> "float | np.ndarray":
    """Apply a minimum billing cutoff: bill at least ``minimum`` whenever value is positive.

    Elementwise on a float ``np.ndarray``, like :func:`round_up`.
    """
    if minimum is None or minimum <= 0:
        return value
    if isinstance(value, np.ndarray):
        return np.where(value <= 0, 0.0, np.maximum(value, minimum))
    if value <= 0:
        return 0.0
    return max(value, minimum)
