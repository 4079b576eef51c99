"""The flavor-batched billing paths against the per-record loop they replaced.

:class:`InflationAnalyzer` compiles Equation 1 once per (platform, flavor) and
prices numpy columns; :class:`CostMeter` reuses one compiled closure per
flavor for trace records.  The oracle here is the plain loop -- one
:meth:`BillingCalculator.billable_resources` or :meth:`bill_request` per
record -- and every comparison is bit for bit (``float.hex``), for every
request-billed catalog model.
"""

import dataclasses

import pytest

from repro.billing.calculator import BillingCalculator, InvocationBillingInput
from repro.billing.catalog import get_billing_model, list_platforms
from repro.billing.inflation import InflationAnalyzer
from repro.billing.meter import CostMeter, replay_trace
from repro.billing.models import BillableTime
from repro.billing.units import ResourceKind
from repro.sim.events import EventBus
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.traces.schema import ResourceUsage, Trace

REQUEST_BILLED = [
    platform for platform in list_platforms()
    if get_billing_model(platform).billable_time is not BillableTime.INSTANCE
]


def _trace(**overrides) -> Trace:
    config = dict(num_requests=600, num_functions=30, seed=31)
    config.update(overrides)
    return TraceGenerator(TraceGeneratorConfig(**config)).generate()


def _zero_cpu(trace: Trace, every: int = 1) -> Trace:
    requests = [
        dataclasses.replace(r, usage=ResourceUsage(0.0, r.usage.memory_gb)) if i % every == 0 else r
        for i, r in enumerate(trace.requests)
    ]
    return Trace(requests, trace.cold_starts, trace.functions.values())


TRACES = {
    "many_flavors": lambda: _trace(),
    "one_flavor": lambda: _trace(flavors=((0.5, 0.768),)),
    "empty": lambda: Trace([]),
    "all_zero_cpu": lambda: _zero_cpu(_trace(num_requests=50)),
    "some_zero_cpu": lambda: _zero_cpu(_trace(num_requests=300, seed=5), every=7),
}


def _hex(values):
    assert all(type(value) is float for value in values)
    return [value.hex() for value in values]


def _oracle_inflation(platform, requests):
    """The per-record loop: billable and actual resources of each CPU-reporting request."""
    calculator = BillingCalculator(platform)
    columns = ([], [], [], [])
    for record in requests:
        if record.usage.cpu_seconds <= 0:
            continue
        billable = calculator.billable_resources(InvocationBillingInput.from_request(record))
        columns[0].append(billable.get(ResourceKind.CPU, 0.0))
        columns[1].append(billable.get(ResourceKind.MEMORY, 0.0))
        columns[2].append(record.actual_cpu_seconds)
        columns[3].append(record.actual_memory_gb_seconds)
    return columns


@pytest.mark.parametrize("name", sorted(TRACES))
@pytest.mark.parametrize("as_trace", [True, False], ids=["trace", "iterable"])
def test_analyzer_matches_per_record_loop(name, as_trace):
    trace = TRACES[name]()
    results = InflationAnalyzer(REQUEST_BILLED).analyze(
        trace if as_trace else iter(trace.requests)
    )
    assert list(results) == REQUEST_BILLED
    for platform, result in results.items():
        expected = _oracle_inflation(platform, trace.requests)
        actual = (result.billable_cpu_seconds, result.billable_memory_gb_seconds,
                  result.actual_cpu_seconds, result.actual_memory_gb_seconds)
        for got, want in zip(actual, expected):
            assert _hex(got) == _hex(want), platform


def test_analyzer_results_do_not_share_lists():
    results = InflationAnalyzer(REQUEST_BILLED[:2]).analyze(_trace(num_requests=40))
    first, second = results.values()
    first.actual_cpu_seconds.append(1.0)
    assert len(second.actual_cpu_seconds) == 40


def _oracle_meter(platform, records, fee):
    calculator = BillingCalculator(platform)
    cost = cpu = memory = fees = actual_cpu = actual_memory = 0.0
    for record in records:
        billed = calculator.bill_request(record, include_invocation_fee=fee)
        cost += billed.invoice.total
        cpu += billed.billable_cpu_seconds
        memory += billed.billable_memory_gb_seconds
        fees += billed.invoice.charge_for("invocation_fee")
        actual_cpu += billed.actual_cpu_seconds
        actual_memory += billed.actual_memory_gb_seconds
    return [cost, cpu, memory, fees, actual_cpu, actual_memory]


def _meter_totals(meter):
    return [meter.cost_usd, meter.billable_cpu_seconds, meter.billable_memory_gb_seconds,
            meter.invocation_fee_usd, meter.actual_cpu_seconds, meter.actual_memory_gb_seconds]


@pytest.mark.parametrize("fee", [True, False], ids=["fee_on", "fee_off"])
@pytest.mark.parametrize("platform", REQUEST_BILLED, ids=lambda p: p.value)
def test_meter_record_path_matches_bill_request(platform, fee):
    trace = _trace(num_requests=400, seed=13)
    bus = EventBus()
    meter = CostMeter(platform, include_invocation_fee=fee).attach(bus)
    ordered = replay_trace(trace, bus)
    expected = _oracle_meter(platform, ordered, fee)
    assert _hex(_meter_totals(meter)) == _hex(expected)
    assert meter.num_requests == len(ordered)
    assert _hex([meter.cost_usd_by_class["standard"], meter.cost_usd_by_attempt[1]]) == _hex(
        [expected[0]] * 2
    )

    direct = CostMeter(platform, include_invocation_fee=fee)
    for record in ordered:
        direct.meter_request(InvocationBillingInput.from_request(record))
    assert _hex(_meter_totals(direct)) == _hex(expected)
