"""Emulate Python 3.12's compensated builtin ``sum`` on an older interpreter.

From 3.12, ``sum`` adds exact ``float`` items with Neumaier compensation, so
float totals can differ in the last bits from 3.11.  Put this directory first
on ``PYTHONPATH`` and the interpreter imports this module at start-up and
swaps ``builtins.sum`` for :func:`compensated_sum`, which lets the 3.12 CI
leg's arithmetic be checked without a 3.12 interpreter::

    PYTHONPATH=tools/py312_sum:src python -m pytest -q

The fold follows CPython 3.12's ``builtin_sum_impl``:

- from an ``int`` start, ``int`` and ``bool`` items add exactly;
- from the first ``float`` on, each exact-``float`` item joins a running
  total ``t`` and the compensation ``c``; an ``int`` that fits a C long
  is added to ``t`` uncompensated;
- ``c`` (when nonzero and finite) is added once, at the end or before the
  first other item (an ``np.float64``, say), after which the remaining
  items are added with plain ``+``.

Imported under any other name (a test loading it by path), the module only
defines the function.
"""

import builtins
import math

_LONG_MIN = -(1 << 63)
_LONG_MAX = (1 << 63) - 1


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 computes it."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total = result
        compensation = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


if __name__ == "sitecustomize":
    builtins.sum = compensated_sum
