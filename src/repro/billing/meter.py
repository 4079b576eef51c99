"""Live cost metering: an event-bus subscriber that invoices as the simulation runs.

The batch path (:class:`repro.billing.calculator.BillingCalculator` over a
finished trace) answers "what did this workload cost" after the fact.  The
:class:`CostMeter` answers the same question *while a simulation runs*: it
subscribes to the typed sandbox-lifecycle and request-completion events on a
:class:`repro.sim.events.EventBus` and accumulates billable vCPU-seconds,
GB-seconds and money incrementally through the very same
:class:`BillingCalculator`, so the live and batch paths agree exactly -- the
equivalence the cluster co-simulation relies on (and a test asserts) is that
metering a trace live through the bus produces the identical invoice to
billing the trace in batch.  Simulator outcomes, trace records and instance
lifespans are all priced by the same compiled Equation 1
(:meth:`~repro.billing.models.BillingModel.compile`).

Two billing families are handled:

- **Request-billed models** (execution / turnaround / CPU-time billable time):
  each :class:`~repro.sim.events.RequestCompleted` event is billed as one
  invocation.
- **Instance-billed models** (``BillableTime.INSTANCE``): sandbox lifespans
  are metered from cold-start to eviction and each closed instance is billed
  over its lifespan (without the per-request fee, matching
  :mod:`repro.billing.instance_billing`).

Idle (keep-alive) instance-seconds are accounted separately from busy time so
provider-side keep-alive cost can be read off the meter.

Three cross-layer refinements ride on the same event stream:

- **Stretched billing**: the meter bills the ``execution_duration_s`` each
  outcome actually reports.  When the execution-feedback layer
  (:mod:`repro.sim.feedback`) is on, scheduler throttling stretches those
  durations, so invoices reflect throttled reality with no meter changes --
  and with feedback off the durations (and therefore the float-exact
  live==batch equivalence) are untouched.
- **Zone-aware pricing**: with ``price_class_multipliers`` configured and a
  fleet attached (:meth:`CostMeter.attach_fleet`), each request/instance is
  billed at the price class of the host its sandbox is placed on (resource
  unit prices scaled via
  :meth:`~repro.billing.models.BillingModel.with_price_multiplier`), giving
  heterogeneous multi-zone fleets a per-zone invoice
  (:attr:`CostMeter.cost_usd_by_class`).
- **Per-attempt billing**: with the client retry loop
  (:mod:`repro.sim.retry`) on, each completed attempt arrives as its own
  ``RequestCompleted`` event and is invoiced separately, bucketed by attempt
  number (:attr:`CostMeter.cost_usd_by_attempt`) -- the user-side bill of
  retry amplification.  Without retries everything bills under attempt 1 and
  the totals are float-exactly unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.billing.calculator import BillingCalculator, InvocationBillingInput
from repro.billing.models import FEE_LABEL, BillableTime, BillingModel, billable_quantities
from repro.billing.units import ResourceKind
from repro.numeric import fold
from repro.sim.events import (
    EventBus,
    RequestCompleted,
    SandboxAdmitted,
    SandboxBusy,
    SandboxColdStart,
    SandboxIdle,
    SandboxTerminated,
)
from repro.traces.schema import RequestRecord, Trace

__all__ = ["RequestResources", "CostMeter", "replay_trace"]


@dataclass(frozen=True)
class RequestResources:
    """Per-request resource context for outcomes that do not carry their own.

    Simulator outcomes (:class:`repro.platform.metrics.RequestOutcome`) report
    durations but not allocations or consumption; the deployment knows those.
    ``used_cpu_seconds`` is the CPU work one request performs (contention
    stretches wall-clock time, not CPU work), ``used_memory_gb`` the average
    resident memory.
    """

    alloc_vcpus: float
    alloc_memory_gb: float
    used_cpu_seconds: float
    used_memory_gb: float

    def __post_init__(self) -> None:
        if self.alloc_vcpus <= 0 or self.alloc_memory_gb <= 0:
            raise ValueError("allocations must be positive")
        if self.used_cpu_seconds < 0 or self.used_memory_gb < 0:
            raise ValueError("usages must be >= 0")

    @classmethod
    def from_function(cls, function: object) -> "RequestResources":
        """Billing context from a function config (``repro.platform.config`` shape).

        Duck-typed (``alloc_vcpus``, ``alloc_memory_gb``, ``cpu_time_s``,
        ``used_memory_gb``) so the billing layer does not import the platform
        layer.
        """
        return cls(
            alloc_vcpus=function.alloc_vcpus,  # type: ignore[attr-defined]
            alloc_memory_gb=function.alloc_memory_gb,  # type: ignore[attr-defined]
            used_cpu_seconds=function.cpu_time_s,  # type: ignore[attr-defined]
            used_memory_gb=function.used_memory_gb,  # type: ignore[attr-defined]
        )


@dataclass
class _OpenInstance:
    """A sandbox between cold start and eviction."""

    started_s: float
    alloc_vcpus: float
    alloc_memory_gb: float
    idle_since_s: Optional[float] = None
    idle_seconds: float = 0.0
    #: Whether the sandbox ever landed on a host.  Only ``False`` under
    #: admission-gated metering (:meth:`CostMeter.attach_admissions`) before
    #: the fleet's ``SandboxAdmitted`` arrives; a sandbox closed while still
    #: ``False`` spent its whole life in the admission queue and bills
    #: nothing.
    admitted: bool = True


class CostMeter:
    """Accumulates billable resources and money from simulation events.

    One meter meters one platform billing model.  Attach it to any number of
    event buses (one per co-simulated function, each with its own
    :class:`RequestResources` context), or feed it records directly via
    :meth:`meter_request` / :meth:`meter_outcome`.
    """

    def __init__(
        self,
        platform: "str | BillingModel",
        include_invocation_fee: bool = True,
        price_class_multipliers: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.calculator = BillingCalculator(platform)
        self.include_invocation_fee = include_invocation_fee
        self._instance_billed = self.calculator.model.billable_time is BillableTime.INSTANCE
        #: True once attach_admissions() subscribed: lifespans start at fleet
        #: admission, and sandboxes that never get admitted bill nothing.
        self._admission_gated = False
        # Zone-aware pricing: price class -> unit-price multiplier, with one
        # lazily built calculator per class.  The resolver (attach_fleet) maps
        # a sandbox name to the price class of its current host.
        self._price_class_multipliers = (
            dict(price_class_multipliers) if price_class_multipliers is not None else None
        )
        self._class_calculators: Dict[str, BillingCalculator] = {}
        self._price_class_resolver: Optional[Callable[[str], Optional[str]]] = None
        #: Running invoice per price class ("standard" covers unresolved work).
        self.cost_usd_by_class: Dict[str, float] = {}
        #: Running request-billed invoice per client attempt number.  With a
        #: retry loop on, every billed attempt is invoiced separately (a
        #: request that succeeds on its third attempt pays three times the
        #: backoff in latency but is *billed* once, at attempt 3 -- failed
        #: attempts never executed, so nothing was metered for them); without
        #: retries everything lands under attempt 1.
        self.cost_usd_by_attempt: Dict[int, float] = {}
        #: Running request-billed invoice per tenant (the multi-tenancy
        #: layer's invoice breakdown).  Outcomes without a tenant tag bill
        #: only into the global totals, so the dict stays empty -- and costs
        #: nothing -- outside tenant-tagged co-simulations.
        self.cost_usd_by_tenant: Dict[str, float] = {}
        # Request-level accumulators.
        self.num_requests = 0
        self.num_cold_starts = 0
        self.cost_usd = 0.0
        self.billable_cpu_seconds = 0.0
        self.billable_memory_gb_seconds = 0.0
        self.actual_cpu_seconds = 0.0
        self.actual_memory_gb_seconds = 0.0
        self.invocation_fee_usd = 0.0
        # Instance-level accumulators.
        self._open_instances: Dict[str, _OpenInstance] = {}
        self.instances_started = 0
        self.instances_closed = 0
        self.instance_seconds = 0.0
        self.idle_instance_seconds = 0.0
        self.allocated_vcpu_seconds = 0.0
        self.allocated_memory_gb_seconds = 0.0

    @property
    def model(self) -> BillingModel:
        return self.calculator.model

    # ------------------------------------------------------------------
    # Bus wiring
    # ------------------------------------------------------------------

    def attach(self, bus: EventBus, resources: Optional[RequestResources] = None) -> "CostMeter":
        """Subscribe to a bus; ``resources`` fills in what outcomes don't carry."""
        prices: Dict[object, object] = {}  # this bus's compiled Equation 1, per flavor
        bus.subscribe(RequestCompleted, lambda event: self._meter(event.outcome, resources, prices))
        bus.subscribe(SandboxColdStart, self._on_cold_start)
        bus.subscribe(SandboxBusy, self._on_busy)
        bus.subscribe(SandboxIdle, self._on_idle)
        bus.subscribe(SandboxTerminated, self._on_terminated)
        return self

    def attach_admissions(self, bus: EventBus) -> "CostMeter":
        """Start instance lifespans at fleet *admission* instead of cold start.

        Only meaningful in a closed-loop co-simulation (feedback on), where a
        queued cold start does not land on a host -- and cannot initialise --
        until the fleet admits it.  Subscribing the meter to the cluster
        bus's :class:`SandboxAdmitted` events re-bases each open instance's
        start time to its admission, so instance-billed invoices exclude the
        admission-queue wait.  Directly placed sandboxes are admitted at
        their cold-start time, leaving their lifespans float-exactly
        unchanged.  A sandbox that *never* gets admitted -- still queued at
        the horizon, or rejected at admission -- spent its entire life
        off-host and is closed without billing anything.
        """
        self._admission_gated = True
        bus.subscribe(SandboxAdmitted, self._on_admitted)
        return self

    def attach_fleet(self, fleet) -> "CostMeter":
        """Resolve each sandbox's price class through a fleet's live placements.

        ``fleet`` is duck-typed (``price_class_of(sandbox_name)``, see
        :meth:`repro.cluster.fleet.Fleet.price_class_of`) so the billing layer
        does not import the cluster layer.  Only meaningful together with
        ``price_class_multipliers``; without multipliers every class bills at
        base prices anyway.
        """
        self._price_class_resolver = fleet.price_class_of
        return self

    def register_metrics(self, registry) -> "CostMeter":
        """Expose the live invoice as observability gauges (pure reads).

        ``billed_cost_usd`` is the running user-side total the telemetry
        sampler turns into a cost-over-time series -- the live counterpart of
        the end-of-run ``totals()`` row.
        """
        registry.gauge("billed_cost_usd", fn=lambda: float(self.cost_usd))
        registry.gauge("billed_requests", fn=lambda: float(self.num_requests))
        registry.gauge("billed_instance_seconds", fn=lambda: float(self.instance_seconds))
        return self

    def _resolve_price_class(self, sandbox_name: str) -> Optional[str]:
        if self._price_class_resolver is None or not sandbox_name:
            return None
        return self._price_class_resolver(sandbox_name)

    def _add_cost(self, price_class: Optional[str], amount_usd: float) -> None:
        """Fold one charge into the total and its price-class bucket."""
        bucket = price_class if price_class is not None else "standard"
        self.cost_usd_by_class[bucket] = self.cost_usd_by_class.get(bucket, 0.0) + amount_usd
        self.cost_usd += amount_usd

    def _book(
        self, price: Callable, execution_s: float, init_s: float, used_cpu_seconds: float,
        used_memory_gb: float, cold_start: bool, price_class: Optional[str], attempts: int,
        tenant: str,
    ) -> None:
        """Price one request with a compiled Equation 1 and :meth:`_fold` it into the totals."""
        self._fold(_charges(price, execution_s, init_s, used_cpu_seconds, used_memory_gb),
                   execution_s, used_cpu_seconds, used_memory_gb, cold_start, price_class,
                   attempts, tenant)

    def _fold(self, charges: Tuple[float, float, float, float], execution_s: float,
              used_cpu_seconds: float, used_memory_gb: float, cold_start: bool,
              price_class: Optional[str], attempts: int, tenant: str) -> None:
        """Fold one request's :func:`_charges` into the running totals."""
        total, fee, billable_cpu, billable_memory = charges
        self.num_requests += 1
        if cold_start:
            self.num_cold_starts += 1
        self._add_cost(price_class, total)
        self.cost_usd_by_attempt[attempts] = self.cost_usd_by_attempt.get(attempts, 0.0) + total
        if tenant:
            self.cost_usd_by_tenant[tenant] = self.cost_usd_by_tenant.get(tenant, 0.0) + total
        self.billable_cpu_seconds += billable_cpu
        self.billable_memory_gb_seconds += billable_memory
        self.actual_cpu_seconds += used_cpu_seconds
        self.actual_memory_gb_seconds += used_memory_gb * execution_s
        self.invocation_fee_usd += fee

    def _calculator_for(self, price_class: Optional[str]) -> BillingCalculator:
        """The per-price-class calculator (the base one when pricing is flat).

        With no multipliers configured -- or a multiplier of exactly 1.0 --
        this returns the base calculator itself, keeping the float-exact
        live==batch equivalence intact for single-zone runs.
        """
        if price_class is None or self._price_class_multipliers is None:
            return self.calculator
        multiplier = self._price_class_multipliers.get(price_class, 1.0)
        if multiplier == 1.0:
            return self.calculator
        calculator = self._class_calculators.get(price_class)
        if calculator is None:
            calculator = BillingCalculator(self.model.with_price_multiplier(multiplier))
            self._class_calculators[price_class] = calculator
        return calculator

    # ------------------------------------------------------------------
    # Request metering
    # ------------------------------------------------------------------

    def meter_request(
        self,
        inputs: InvocationBillingInput,
        cold_start: bool = False,
        price_class: Optional[str] = None,
        attempts: int = 1,
        tenant: str = "",
    ) -> None:
        """Bill one invocation (at its zone's price class) into the running totals."""
        price = self._calculator_for(price_class).compile(inputs, self.include_invocation_fee)
        self._book(price, inputs.execution_s, inputs.init_s, inputs.used_cpu_seconds,
                   inputs.used_memory_gb, cold_start, price_class, attempts, tenant)

    def meter_outcome(self, outcome: object, resources: Optional[RequestResources] = None) -> None:
        """Meter a ``RequestCompleted`` payload: a trace record or a simulator outcome."""
        self._meter(outcome, resources, {})

    def _meter(self, outcome: object, resources: Optional[RequestResources],
               prices: Dict[object, object]) -> None:
        """:meth:`meter_outcome`, reusing ``prices``: Equation 1 compiled per flavor.

        A simulator outcome's flavor is the bus's fixed ``resources`` context,
        so ``prices`` is keyed by price class alone; a trace record carries its
        own, keyed by ``(price_class, alloc_vcpus, alloc_memory_gb)``.  Either
        way each bus compiles once per price class and flavor.  A simulator
        outcome's usages are fixed too, so where the model rounds time its
        :func:`_charges` are memoised per billable duration (per step reached).
        """
        is_record = isinstance(outcome, RequestRecord)
        execution_s = None if is_record else getattr(outcome, "execution_duration_s", None)
        if not is_record and execution_s is None:
            raise TypeError(
                f"cannot meter outcome of type {type(outcome).__name__}: expected a "
                "RequestRecord or an object with execution_duration_s"
            )
        cold = bool(getattr(outcome, "cold_start", False))
        if self._instance_billed:
            # Instance-billed models charge for lifespans, not invocations; the
            # per-request fee usually does not apply either.  Count the request
            # for rate statistics but bill nothing here.
            self.num_requests += 1
            if cold:
                self.num_cold_starts += 1
            return
        price_class = None if self._price_class_resolver is None else self._resolve_price_class(
            str(getattr(outcome, "sandbox_name", "")))
        if is_record:
            flavor, key = outcome, (price_class, outcome.alloc_vcpus, outcome.alloc_memory_gb)
            execution_s, init_s = outcome.duration_s, outcome.init_duration_s
            used_cpu_seconds, used_memory_gb = outcome.usage.cpu_seconds, outcome.usage.memory_gb
        elif resources is None:
            raise ValueError(
                "metering simulator outcomes needs a RequestResources context "
                "(allocations and per-request usage are not part of the outcome)"
            )
        else:
            flavor, key = resources, price_class
            execution_s = float(execution_s)
            init_s = float(getattr(outcome, "init_duration_s", 0.0))
            used_cpu_seconds, used_memory_gb = resources.used_cpu_seconds, resources.used_memory_gb
        entry = prices.get(key)
        if entry is None:
            calculator = self._calculator_for(price_class)
            model = calculator.model
            entry = prices[key] = (
                calculator.compile(flavor, self.include_invocation_fee), model.billable_seconds,
                None if is_record or model.time_granularity_s <= 0 else {},
            )
        price, billable_seconds, memo = entry
        if memo is None:
            charges = _charges(price, execution_s, init_s, used_cpu_seconds, used_memory_gb)
        else:
            billable = billable_seconds(execution_s, init_s, None, used_cpu_seconds)
            charges = memo.get(billable)
            if charges is None:
                charges = memo[billable] = _charges(price, execution_s, init_s,
                                                    used_cpu_seconds, used_memory_gb)
        self._fold(charges, execution_s, used_cpu_seconds, used_memory_gb, cold, price_class,
                   int(getattr(outcome, "attempts", 1)), str(getattr(outcome, "tenant", "")))

    # ------------------------------------------------------------------
    # Instance metering (sandbox lifecycle events)
    # ------------------------------------------------------------------

    def _on_cold_start(self, event: SandboxColdStart) -> None:
        self._open_instances[event.sandbox_name] = _OpenInstance(
            started_s=event.time_s,
            alloc_vcpus=event.alloc_vcpus,
            alloc_memory_gb=event.alloc_memory_gb,
            admitted=not self._admission_gated,
        )
        self.instances_started += 1

    def _on_admitted(self, event: SandboxAdmitted) -> None:
        instance = self._open_instances.get(event.sandbox_name)
        if instance is not None:
            instance.started_s = event.time_s
            instance.admitted = True

    def _on_busy(self, event: SandboxBusy) -> None:
        instance = self._open_instances.get(event.sandbox_name)
        if instance is not None and instance.idle_since_s is not None:
            instance.idle_seconds += max(event.time_s - instance.idle_since_s, 0.0)
            instance.idle_since_s = None

    def _on_idle(self, event: SandboxIdle) -> None:
        instance = self._open_instances.get(event.sandbox_name)
        if instance is not None:
            instance.idle_since_s = event.time_s

    def _on_terminated(self, event: SandboxTerminated) -> None:
        instance = self._open_instances.pop(event.sandbox_name, None)
        if instance is not None:
            self._close_instance(event.sandbox_name, instance, event.time_s)

    def _close_instance(self, name: str, instance: _OpenInstance, now_s: float) -> None:
        if not instance.admitted:
            # Admission-gated metering: this sandbox never landed on a host,
            # so its whole "lifespan" was off-host admission-queue wait --
            # the wait the gate exists to exclude from invoices.
            self.instances_closed += 1
            return
        lifespan = max(now_s - instance.started_s, 0.0)
        if instance.idle_since_s is not None:
            instance.idle_seconds += max(now_s - instance.idle_since_s, 0.0)
            instance.idle_since_s = None
        self.instances_closed += 1
        self.instance_seconds += lifespan
        self.idle_instance_seconds += instance.idle_seconds
        self.allocated_vcpu_seconds += instance.alloc_vcpus * lifespan
        self.allocated_memory_gb_seconds += instance.alloc_memory_gb * lifespan
        if self._instance_billed and lifespan > 0:
            # Resolve the zone price class while the sandbox is still placed
            # (the meter closes instances before the fleet releases capacity).
            price_class = self._resolve_price_class(name)
            model = self._calculator_for(price_class).model
            allocations = {
                ResourceKind.CPU: instance.alloc_vcpus,
                ResourceKind.MEMORY: instance.alloc_memory_gb,
            }
            rows = model.compile(allocations, include_invocation_fee=False)(
                model.billable_seconds(0.0, instance_s=lifespan), {}
            )
            self._add_cost(price_class, fold((row[4] for row in rows), 0.0))
            billable = billable_quantities(rows)
            self.billable_cpu_seconds += billable.get(ResourceKind.CPU, 0.0)
            self.billable_memory_gb_seconds += billable.get(ResourceKind.MEMORY, 0.0)

    def finalize(self, now_s: float) -> None:
        """Close instances still open at the end of the simulation horizon."""
        for name in sorted(self._open_instances):
            self._close_instance(name, self._open_instances.pop(name), now_s)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """The running totals as one flat row."""
        return {
            "platform": self.model.platform,
            "num_requests": float(self.num_requests),
            "num_cold_starts": float(self.num_cold_starts),
            "cost_usd": self.cost_usd,
            "billable_cpu_seconds": self.billable_cpu_seconds,
            "billable_memory_gb_seconds": self.billable_memory_gb_seconds,
            "actual_cpu_seconds": self.actual_cpu_seconds,
            "actual_memory_gb_seconds": self.actual_memory_gb_seconds,
            "invocation_fee_usd": self.invocation_fee_usd,
            "instances_started": float(self.instances_started),
            "instances_closed": float(self.instances_closed),
            "instance_seconds": self.instance_seconds,
            "idle_instance_seconds": self.idle_instance_seconds,
            "allocated_vcpu_seconds": self.allocated_vcpu_seconds,
            "allocated_memory_gb_seconds": self.allocated_memory_gb_seconds,
        }


def _charges(price: Callable, execution_s: float, init_s: float, used_cpu_seconds: float,
             used_memory_gb: float) -> Tuple[float, float, float, float]:
    """``(total, fee, billable_cpu, billable_memory)`` of one request priced by ``price``."""
    rows, billable_cpu, billable_memory = price(execution_s, init_s, used_cpu_seconds, used_memory_gb)
    total = fee = 0.0  # Invoice.total and charge_for(FEE_LABEL), without the invoice
    for label, _, _, _, charge in rows:
        total += charge
        if label == FEE_LABEL:
            fee += charge
    return total, fee, billable_cpu, billable_memory


def replay_trace(
    trace: "Trace | Sequence[RequestRecord]",
    bus: EventBus,
) -> List[RequestRecord]:
    """Replay a trace's requests as ``RequestCompleted`` events on a bus.

    Requests are published in completion-time order (stable-sorted by
    ``arrival + turnaround``), each stamped with its completion time -- the
    order a live simulation would have emitted them.  Returns the records in
    the order published so a caller can run the batch calculator over exactly
    the same sequence and compare invoices one-to-one.
    """
    records = trace.requests if isinstance(trace, Trace) else list(trace)
    ordered = sorted(records, key=lambda r: r.arrival_s + r.turnaround_s)
    for record in ordered:
        bus.publish(RequestCompleted(record.arrival_s + record.turnaround_s, record))
    return ordered
