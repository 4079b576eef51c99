"""Float-exact golden for Figure 2: the inflation analysis and the trace it reads.

``run figure2`` prints three significant figures, so it cannot catch a change
in the last bits of the analysis.  This suite pins, for every request-billed
catalog model over ``default_trace(num_requests=2000)``:

- the ``repr`` of the aggregate and mean CPU / memory inflation;
- a sha256 of the ``repr`` of each of the four per-request lists
  (billable and actual vCPU-seconds and GB-seconds).

It also pins a sha256 of ``repr(trace.requests)`` and ``repr(trace.cold_starts)``
for two generator seeds, so a generator change that moves a single record
(or turns a float into a numpy scalar) shows up here.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/test_billing_figure2_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.inflation import default_trace
from repro.billing.catalog import get_billing_model, list_platforms
from repro.billing.inflation import InflationAnalyzer
from repro.billing.models import BillableTime
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "billing" / "figure2.json"

#: Generator configurations whose records are pinned.
GENERATOR_CONFIGS = {
    "default_2000": TraceGeneratorConfig(num_requests=2000, num_functions=200, seed=2026),
    "seed_11": TraceGeneratorConfig(num_requests=1500, num_functions=40, seed=11),
}

LISTS = (
    "billable_cpu_seconds",
    "billable_memory_gb_seconds",
    "actual_cpu_seconds",
    "actual_memory_gb_seconds",
)
SCALARS = (
    "aggregate_cpu_inflation",
    "aggregate_memory_inflation",
    "mean_cpu_inflation",
    "mean_memory_inflation",
)


def _sha(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def request_billed_platforms():
    return [
        platform for platform in list_platforms()
        if get_billing_model(platform).billable_time is not BillableTime.INSTANCE
    ]


def _inflation() -> dict:
    results = InflationAnalyzer(request_billed_platforms()).analyze(
        default_trace(num_requests=2000)
    )
    out = {}
    for platform, result in results.items():
        entry = {name: repr(getattr(result, name)) for name in SCALARS}
        entry.update({f"{name}_sha256": _sha(getattr(result, name)) for name in LISTS})
        entry["records"] = len(result.billable_cpu_seconds)
        out[platform.value] = entry
    return out


def _generator() -> dict:
    out = {}
    for name, config in GENERATOR_CONFIGS.items():
        trace = TraceGenerator(config).generate()
        out[name] = {
            "requests": len(trace.requests),
            "requests_sha256": _sha(trace.requests),
            "cold_starts": len(trace.cold_starts),
            "cold_starts_sha256": _sha(trace.cold_starts),
        }
    return out


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "'PYTHONPATH=src python tests/test_billing_figure2_golden.py'"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_inflation_matches_golden(golden):
    assert _inflation() == golden["inflation"]


def test_generator_records_match_golden(golden):
    assert _generator() == golden["generator"]


def regenerate() -> None:  # pragma: no cover - manual tool
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {"inflation": _inflation(), "generator": _generator()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
