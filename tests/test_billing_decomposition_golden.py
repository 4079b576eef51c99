"""Float-exact goldens for the §5 cost ladder, Figure 1's price table and keep-alive pricing.

``test_core.py`` checks :func:`decompose_invocation_cost` only to ``rel=1e-9``;
this suite pins it bit for bit, together with the two price readers that sit
beside it:

- ``decomposition``: the ``repr`` of :func:`decompose_invocation_cost` over a
  grid of every request-billed catalog platform x 2 workloads x 5 vCPU x 3
  memory allocations x 3 serving setups x 4 scheduling setups x 2
  concurrencies (7,200 points), stored as a sha256 plus a few readable points;
- ``platform_prices`` / ``figure1_series``: the ``repr`` of
  :data:`PLATFORM_PRICES` and of :func:`figure1_series`;
- ``keepalive``: :func:`estimate_keepalive_cost` for every serving preset's
  keep-alive policy priced on every platform.

A ``repr`` of a float is its shortest round-tripping form, so string equality
is bit equality.  Regenerate after an *intentional* pricing change with::

    PYTHONPATH=src python tests/test_billing_decomposition_golden.py
"""

import hashlib
import itertools
import json
import pathlib

import pytest

from repro.billing.catalog import get_billing_model, list_platforms
from repro.billing.models import BillableTime
from repro.billing.pricing import PLATFORM_PRICES, figure1_series
from repro.core.decomposition import decompose_invocation_cost
from repro.platform.keepalive_cost import estimate_keepalive_cost
from repro.platform.presets import PLATFORM_PRESETS
from repro.sched.presets import PROVIDER_SCHED_PRESETS
from repro.workloads.functions import IO_BOUND_FUNCTION, PYAES_FUNCTION

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "billing" / "decomposition.json"

WORKLOADS = (PYAES_FUNCTION, IO_BOUND_FUNCTION)
VCPUS = (0.072, 0.25, 0.5, 1.0, 2.0)
MEMORY_GB = (0.128, 1.0, 3.0)
SERVING = (None, "aws_lambda_like", "gcp_run_like")
SCHEDULING = (None, *sorted(PROVIDER_SCHED_PRESETS))
CONCURRENCY = (1, 4)
#: Grid indices shown in full in the golden (the rest are covered by the sha256).
SHOWN = (0, 123, 1999, 3333, 4242, 6543, 7199)

IDLE_GAPS_S = (0.0, 0.5, 3.0, 45.0, 300.0, 1800.0)


def _decompositions() -> list:
    platforms = [
        platform for platform in list_platforms()
        if get_billing_model(platform).billable_time is not BillableTime.INSTANCE
    ]
    return [
        repr(decompose_invocation_cost(
            workload, vcpus, memory, platform,
            serving_platform=PLATFORM_PRESETS[serving] if serving else None,
            scheduling_provider=sched, concurrent_requests=concurrency,
        ))
        for platform, workload, vcpus, memory, serving, sched, concurrency in itertools.product(
            platforms, WORKLOADS, VCPUS, MEMORY_GB, SERVING, SCHEDULING, CONCURRENCY
        )
    ]


def _decomposition_golden() -> dict:
    reprs = _decompositions()
    return {
        "points": len(reprs),
        "sha256": hashlib.sha256("\n".join(reprs).encode()).hexdigest(),
        "shown": {str(index): reprs[index] for index in SHOWN},
    }


def _keepalive() -> dict:
    return {
        f"{preset}:{platform.value}": repr(estimate_keepalive_cost(
            config.keep_alive, IDLE_GAPS_S, 0.5, 1.0, pricing_platform=platform, policy_label=preset,
        ))
        for preset, config in sorted(PLATFORM_PRESETS.items())
        for platform in list_platforms()
    }


def _golden() -> dict:
    return {
        "decomposition": _decomposition_golden(),
        "platform_prices": repr(PLATFORM_PRICES),
        "figure1_series": repr(figure1_series()),
        "keepalive": _keepalive(),
    }


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "'PYTHONPATH=src python tests/test_billing_decomposition_golden.py'"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_decomposition_grid_matches_golden(golden):
    assert _decomposition_golden() == golden["decomposition"]


def test_platform_prices_match_golden(golden):
    assert repr(PLATFORM_PRICES) == golden["platform_prices"]


def test_figure1_series_matches_golden(golden):
    assert repr(figure1_series()) == golden["figure1_series"]


def test_keepalive_estimates_match_golden(golden):
    assert _keepalive() == golden["keepalive"]


def regenerate() -> None:  # pragma: no cover - manual tool
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_golden(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
