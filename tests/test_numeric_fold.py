"""The shared left-to-right fold and the Python 3.12 ``sum`` emulator.

Float totals that reach goldens, sweep CSVs and replay fingerprints go
through :func:`repro.numeric.fold`, so they keep their bits on interpreters
whose builtin ``sum`` compensates.  ``tools/py312_sum/sitecustomize.py``
emulates that compensated ``sum`` for running the suite as the 3.12 CI leg
would; these tests pin both.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from repro.numeric import fold

_EMULATOR = Path(__file__).resolve().parents[1] / "tools" / "py312_sum" / "sitecustomize.py"


def _load_emulator():
    spec = importlib.util.spec_from_file_location("py312_sum_emulator", _EMULATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compensated_sum


compensated_sum = _load_emulator()

#: True on Python 3.12+ and under the emulator: the builtin compensates.
_COMPENSATING = sum([0.1] * 10) == 1.0


class TestFold:
    def test_adds_strictly_left_to_right(self):
        assert fold([0.1] * 10) == 0.9999999999999999
        assert fold([1e100, 1.0, -1e100]) == 0.0

    def test_keeps_the_builtin_start_and_types(self):
        assert fold([]) == 0 and type(fold([])) is int
        assert type(fold([], 0.0)) is float
        assert fold([1, 2, 3]) == 6 and type(fold([1, 2, 3])) is int
        assert type(fold([np.float64(0.5)])) is np.float64

    @pytest.mark.skipif(_COMPENSATING, reason="the builtin sum compensates")
    def test_matches_the_uncompensated_builtin(self):
        rng = random.Random(7)
        for _ in range(50):
            values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-9, 9) for _ in range(40)]
            assert fold(values) == sum(values)


class TestCompensatedSumEmulator:
    def test_compensates_exact_floats(self):
        assert compensated_sum([0.1] * 10) == 1.0
        assert compensated_sum([1e100, 1.0, -1e100]) == 1.0

    def test_ints_stay_exact_and_integral(self):
        assert compensated_sum([2**62, 2**62, True]) == 2**63 + 1
        assert type(compensated_sum([1, 2])) is int
        assert compensated_sum([]) == 0

    def test_numpy_floats_take_the_plain_path(self):
        assert compensated_sum([np.float64(0.1)] * 10) == fold([np.float64(0.1)] * 10)
        # the compensation gathered so far is flushed before the first
        # non-float item; what follows is added uncompensated
        assert compensated_sum([0.1] * 10 + [np.float64(0.0)]) == 1.0

    @pytest.mark.skipif(not _COMPENSATING, reason="the builtin sum does not compensate")
    def test_matches_the_compensating_builtin(self):
        rng = random.Random(11)
        for _ in range(50):
            values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-9, 9) for _ in range(40)]
            values.insert(rng.randint(0, 40), rng.randint(-5, 5))
            assert compensated_sum(values) == sum(values)
