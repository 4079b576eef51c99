"""Interpreter-independent float arithmetic shared by every layer.

From Python 3.12 the builtin ``sum`` compensates rounding error on float
items (Neumaier summation), so the same run would print different bits on
3.11 and 3.12.  Every float total that reaches a golden, a sweep CSV or a
replay fingerprint goes through :func:`fold` instead.  Integer counts keep
the builtin ``sum``: it is exact on every version.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["fold"]


def fold(values: Iterable[float], start: float = 0) -> float:
    """Add ``values`` to ``start`` strictly left to right.

    Same signature as the builtin ``sum``, and bit for bit the result the
    builtin gives before Python 3.12, including the integer ``0`` of an
    empty sum with the default ``start``.  Pass ``start=0.0`` for a float
    zero.
    """
    total = start
    for value in values:
        total += value
    return total
