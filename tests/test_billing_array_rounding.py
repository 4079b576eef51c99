"""The array branches of ``round_up`` and ``apply_minimum`` equal the scalar ones bit for bit.

The Figure-2 analyzer prices whole columns of invocations through the same
Equation 1 closure the live meter calls per record, so every element of an
array result must be the float the scalar branch returns -- not merely close
to it.  Floats are compared by their IEEE bytes, so ``-0.0`` and ``0.0`` differ.
"""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.billing.units import ROUND_UP_TOLERANCE, apply_minimum, round_up

#: Granularities: off (``None``, zero, negative), the catalog's steps, powers
#: of two (exact half-unit ties), arbitrary positive steps, and denormals whose
#: ``value / granularity`` overflows to infinity.
GRANULARITIES = st.one_of(
    st.none(),
    st.just(0.0),
    st.floats(max_value=-1e-300, allow_nan=False),
    st.sampled_from([0.001, 0.01, 0.1, 1.0 / 1024.0, 0.05, 0.0625, 0.125, 0.25, 2.0]),
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=5e-324, max_value=2.2e-308),
)

COUNTS = st.integers(min_value=-10**6, max_value=10**6)


def _values(unit: float):
    return st.one_of(
        # anything finite or infinite: zero, negatives, huge, tiny
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, -unit, unit]),
        # half-unit ties
        COUNTS.map(lambda n: (n + 0.5) * unit),
        # within (and just outside) the tolerance of a multiple
        st.tuples(COUNTS, st.floats(min_value=-3 * ROUND_UP_TOLERANCE,
                                    max_value=3 * ROUND_UP_TOLERANCE)).map(
            lambda t: (t[0] + t[1]) * unit
        ),
        # more units than a double holds integers exactly (units > 2**53)
        st.integers(min_value=2**53, max_value=2**62).map(lambda n: n * unit),
    )


@st.composite
def cases(draw):
    step = draw(GRANULARITIES)
    unit = step if step is not None and step > 0 else 1.0
    return step, draw(st.lists(_values(unit), min_size=1, max_size=40))


def _bits(values):
    return [struct.pack("<d", value) for value in values]


def _column(values):
    return np.array(values, dtype=float)


@settings(max_examples=400, deadline=None)
@given(cases())
@example((0.1, [0.3, 0.30000000000000004, 0.05, 0.15, 0.25, -0.1, 0.0]))
@example((0.125, [0.0625, 0.1875, 2.0**60, -0.0]))
@example((5e-324, [1.0, 0.5, 1e-320]))
@example((None, [-1.0, 0.0, 3.5]))
def test_round_up_array_matches_scalar_bit_for_bit(case):
    step, values = case
    expected = [round_up(value, step) for value in values]
    assert _bits(round_up(_column(values), step).tolist()) == _bits(expected)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.none(), st.just(0.0), st.floats(max_value=-1e-300, allow_nan=False),
              st.floats(min_value=1e-9, max_value=10.0)),
    st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 0.1, 1.0])),
             min_size=1, max_size=40),
)
@example(0.1, [0.1, 0.05, 0.0, -0.0, -1.0, 0.2])
def test_apply_minimum_array_matches_scalar_bit_for_bit(minimum, values):
    expected = [apply_minimum(value, minimum) for value in values]
    assert _bits(apply_minimum(_column(values), minimum).tolist()) == _bits(expected)


def test_tolerance_keeps_representation_error_on_the_multiple():
    assert 0.3 / 0.1 != 3.0  # the error ROUND_UP_TOLERANCE absorbs
    assert round_up(0.3, 0.1) == round_up(_column([0.3]), 0.1)[0] == 3 * 0.1
