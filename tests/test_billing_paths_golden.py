"""Float-exact goldens for every billing path, not just the Table-1 trace totals.

``test_billing_golden.py`` pins the five request-billed trace invoices; this
suite pins the paths it does not reach, float for float:

- ``calculator``: every line item (label, quantity, charge) and the billable
  vCPU-seconds / GB-seconds of :meth:`BillingCalculator.bill` for every
  catalog model that is not instance-billed, over the frozen golden trace
  (stored as a sha256 of the per-record rows plus the first and last record);
- ``meter``: :meth:`CostMeter.attach` with fixed :class:`RequestResources`
  (the simulator's shape) for the five request-billed models, attempts 1-3
  and two tenants;
- ``instances``: ``gcp_run_instance`` and ``azure_premium`` sandbox
  lifecycles closed by terminations and :meth:`CostMeter.finalize`.

JSON stores the shortest round-tripping ``repr`` of each double, so ``==`` is
bit-exact.  Regenerate after an *intentional* billing change with::

    PYTHONPATH=src python tests/test_billing_paths_golden.py
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.billing.calculator import BillingCalculator
from repro.billing.catalog import list_platforms
from repro.billing.meter import CostMeter, RequestResources
from repro.billing.models import BillableTime, BillLineItem, Invoice
from repro.platform.metrics import RequestOutcome
from repro.sim.events import (
    EventBus,
    RequestCompleted,
    SandboxBusy,
    SandboxColdStart,
    SandboxIdle,
    SandboxTerminated,
)
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "billing" / "paths.json"

#: The frozen trace of ``test_billing_golden.py``.
TRACE_CONFIG = TraceGeneratorConfig(num_requests=800, num_functions=25, seed=424242)

REQUEST_BILLED_PLATFORMS = (
    "aws_lambda",
    "gcp_run_request",
    "azure_consumption",
    "huawei_functiongraph",
    "cloudflare_workers",
)
INSTANCE_BILLED_PLATFORMS = ("gcp_run_instance", "azure_premium")
TENANTS = ("alice", "bob")


def _keyed(buckets) -> dict:
    return {str(key): value for key, value in sorted(buckets.items())}


def _meter_state(meter: CostMeter) -> dict:
    return {
        "totals": meter.totals(),
        "cost_usd_by_attempt": _keyed(meter.cost_usd_by_attempt),
        "cost_usd_by_tenant": _keyed(meter.cost_usd_by_tenant),
    }


def _calculator_paths() -> dict:
    trace = TraceGenerator(TRACE_CONFIG).generate()
    out = {}
    for platform in list_platforms():
        calculator = BillingCalculator(platform)
        if calculator.model.billable_time is BillableTime.INSTANCE:
            continue
        rows = []
        for record in trace.requests:
            billed = calculator.bill_request(record)
            rows.append([
                [[item.label, item.quantity, item.charge] for item in billed.invoice.line_items],
                billed.billable_cpu_seconds,
                billed.billable_memory_gb_seconds,
            ])
        out[platform.value] = {
            "records": len(rows),
            "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
            "first": rows[0],
            "last": rows[-1],
        }
    return out


def _outcomes(seed: int, function: str):
    """Simulator-shaped outcomes: cold starts, retries, tenants."""
    rng = random.Random(seed)
    # Granularity edges (exact multiples of 1/100 ms), zero and long runs.
    durations = [0.0, 0.1, 0.2, 0.3, 0.001, 1.0, 12.5]
    durations += [rng.uniform(0.0005, 3.0) for _ in range(40)]
    zones = ("p", "e", "s")
    t = 0.0
    for index, duration in enumerate(durations):
        cold = rng.random() < 0.3
        init_s = rng.uniform(0.1, 1.5) if cold else 0.0
        yield RequestOutcome(
            request_id=f"{function}-{index:03d}",
            arrival_s=t,
            origin_s=t,
            start_s=t + init_s,
            completion_s=t + init_s + duration,
            execution_duration_s=duration,
            cold_start=cold,
            init_duration_s=init_s,
            queue_delay_s=0.0,
            sandbox_name=f"{function}-{zones[index % 3]}{index % 4}",
            attempts=1 + index % 3,
            tenant=TENANTS[index % 2] if index % 5 else "",
        )
        t += rng.uniform(0.0, 0.5)


def _meter_paths() -> dict:
    functions = {
        "small": RequestResources(
            alloc_vcpus=0.5, alloc_memory_gb=0.25, used_cpu_seconds=0.07, used_memory_gb=0.11
        ),
        "big": RequestResources(
            alloc_vcpus=2.0, alloc_memory_gb=3.0, used_cpu_seconds=0.9, used_memory_gb=1.3
        ),
    }
    out = {}
    for platform in REQUEST_BILLED_PLATFORMS:
        meter = CostMeter(platform)
        buses = {name: EventBus() for name in functions}
        for name, bus in buses.items():
            meter.attach(bus, functions[name])
        streams = [
            (name, outcome)
            for seed, name in enumerate(sorted(functions))
            for outcome in _outcomes(seed, name)
        ]
        streams.sort(key=lambda item: (item[1].completion_s, item[1].request_id))
        for name, outcome in streams:
            buses[name].publish(RequestCompleted(outcome.completion_s, outcome))
        out[f"{platform}:fee_on"] = _meter_state(meter)
    return out


def _instance_paths() -> dict:
    out = {}
    for platform in INSTANCE_BILLED_PLATFORMS:
        meter = CostMeter(platform)
        bus = EventBus()
        meter.attach(bus)
        rng = random.Random(7)
        names = [f"fn-{zone}{index}" for index in range(6) for zone in "pes"]
        events = []
        for index, name in enumerate(names):
            start = rng.uniform(0.0, 20.0)
            vcpus = (0.25, 1.0, 2.0)[index % 3]
            events.append((start, 0, SandboxColdStart(
                start, name, function_name="fn", alloc_vcpus=vcpus,
                alloc_memory_gb=vcpus * 1.5, init_duration_s=0.4,
            )))
            busy = start + 0.4
            for _ in range(3):
                idle = busy + rng.uniform(0.01, 2.0)
                events.append((busy, 1, SandboxBusy(busy, name)))
                events.append((idle, 2, SandboxIdle(idle, name)))
                busy = idle + rng.uniform(0.0, 3.0)
            if index % 3:
                end = busy + rng.uniform(0.0, 5.0)
                events.append((end, 3, SandboxTerminated(end, name)))
        events.sort(key=lambda item: (item[0], item[1], item[2].sandbox_name))
        for _, _, event in events:
            bus.publish(event)
        for outcome in _outcomes(3, "fn"):
            bus.publish(RequestCompleted(outcome.completion_s, outcome))
        meter.finalize(60.0)
        out[f"{platform}:flat"] = _meter_state(meter)
    return out


def _paths() -> dict:
    return {
        "calculator": _calculator_paths(),
        "meter": _meter_paths(),
        "instances": _instance_paths(),
    }


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "'PYTHONPATH=src python tests/test_billing_paths_golden.py'"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_calculator_line_items_match_golden(golden):
    assert _calculator_paths() == golden["calculator"]


def test_fixed_resource_meter_matches_golden(golden):
    assert _meter_paths() == golden["meter"]


def test_instance_meter_matches_golden(golden):
    assert _instance_paths() == golden["instances"]


def test_invoice_total_is_a_left_to_right_fold():
    """``0.1 + 0.2 + 0.3`` from the left, on every interpreter.

    Python 3.12's builtin ``sum`` compensates rounding error (it returns 0.6
    here); billing totals must not depend on the interpreter.
    """
    invoice = Invoice("x", tuple(
        BillLineItem(label=f"item:{index}", quantity=1.0, unit="requests",
                     unit_price=charge, charge=charge)
        for index, charge in enumerate((0.1, 0.2, 0.3))
    ))
    assert invoice.total == 0.6000000000000001
    assert invoice.charge_for("item") == 0.6000000000000001


def regenerate() -> None:  # pragma: no cover - manual tool
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_paths(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
