"""Typed publish/subscribe event bus for simulation instrumentation.

Simulators publish small frozen event records; metrics collectors, tracers
and experiment-specific probes subscribe to the event *types* they care
about.  This decouples "what happened" from "who is counting": the platform
simulator no longer hard-wires its metrics object, and new collectors (cost
meters, timeline captures, debug traces) attach without touching simulator
code.

Dispatch is deterministic: subscribers of the exact event class run first in
subscription order, then subscribers of each base class in method-resolution
order.  Subscribing to :class:`SimEvent` therefore observes everything.

Dispatch is also the hottest bus path in the repo, so :meth:`EventBus.publish`
resolves each *concrete* event type's subscriber chain once -- the MRO walk
runs only on the first publish of a type (and again after any subscription
change, tracked by a version counter), and the per-publish cost is a single
dict lookup plus the callback calls, with no allocation.  The subscriber set
a publish delivers to is the one resolved when that publish started: a
callback that subscribes or unsubscribes mid-dispatch affects the *next*
publish, never the one in flight.

A record nobody receives need not exist: :meth:`EventBus.hears` answers from
the same cached chain whether a publish of a type would reach anyone
(forwarded subscribers included), so a publisher whose record exists only for
its subscribers asks first and builds nothing on an unheard path -- the
rejection path of an untraced run publishes no failure or retry records.

The payload fields are deliberately loosely typed (``Any``): the bus sits
below the domain layers (`repro.platform`, `repro.sched`) and must not import
them.  Event records are frozen dataclasses with ``__slots__`` (on Python
3.10+) -- one is allocated per simulated occurrence, so their footprint and
their construction are hot-path state.  :func:`slot_init` gives each one an
``__init__`` that stores through the slot descriptors instead of the frozen
``object.__setattr__`` path, keeping every other dataclass behaviour; the
platform's outcome records use it too.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple, Type, TypeVar

#: ``slots=True`` shrinks and speeds up the per-occurrence event records, but
#: the dataclass flag only exists on Python 3.10+; older interpreters fall
#: back to ordinary (dict-backed) dataclasses with identical behaviour.
_SLOTS: Dict[str, bool] = {"slots": True} if sys.version_info >= (3, 10) else {}

_T = TypeVar("_T", bound=type)
_POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD


def _refuse_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def slot_init(cls: _T) -> _T:
    """Give a frozen slotted dataclass an ``__init__`` that stores through its slots.

    A frozen dataclass's generated ``__init__`` stores every field with
    ``object.__setattr__(self, "name", value)``, a by-name attribute lookup
    per field.  This decorator (applied *above* ``@dataclass``) swaps in an
    ``__init__`` compiled once at import with the same parameters, defaults
    and annotations, which calls each field's slot descriptor ``__set__``
    directly -- about a third of the cost per record.  Nothing else changes:
    eq, hash, repr, :func:`dataclasses.replace`, copying and pickling are the
    dataclass's own.  Assigning or deleting any attribute raises
    ``FrozenInstanceError``: the decorator installs ``__setattr__`` and
    ``__delattr__`` that refuse every name, since the frozen dataclass's own
    pair, built for the class ``slots=True`` replaced, fails with a
    ``TypeError`` on a name that is not a field.

    Classes without ``__slots__`` (dataclasses on Python < 3.10) keep their
    ``__init__``.  A class the generated ``__init__`` could not reproduce
    faithfully -- one with ``__post_init__``, a ``default_factory``, an
    ``init=False`` field or an ``InitVar``/keyword-only parameter -- raises
    ``TypeError`` at import, on every interpreter.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        raise TypeError(f"slot_init needs a frozen dataclass, got {cls.__name__}")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"slot_init cannot run {cls.__name__}.__post_init__")
    names = []
    for item in fields(cls):
        if not item.init or item.default_factory is not MISSING:
            raise TypeError(
                f"slot_init cannot compile field {cls.__name__}.{item.name} "
                "(init=False or default_factory)"
            )
        names.append(item.name)
    original = cls.__init__
    arguments = list(inspect.signature(original).parameters.values())[1:]
    if [(a.name, a.kind) for a in arguments] != [(n, _POSITIONAL) for n in names]:
        raise TypeError(
            f"slot_init cannot compile {cls.__name__}.__init__ "
            "(InitVar or keyword-only parameters)"
        )
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    if "__slots__" not in cls.__dict__:
        return cls
    setters = [getattr(cls, name).__set__ for name in names]
    setter_names = [f"__set{index}__" for index in range(len(names))]
    body = "".join(f"        {s}(self, {n})\n" for s, n in zip(setter_names, names))
    source = (
        f"def __make__({', '.join(setter_names)}):\n"
        f"    def __init__(self, {', '.join(names)}):\n{body}"
        "    return __init__\n"
    )
    namespace: Dict[str, Any] = {}
    exec(source, namespace)
    init = namespace["__make__"](*setters)
    init.__defaults__ = original.__defaults__
    init.__annotations__ = dict(original.__annotations__)
    init.__qualname__ = original.__qualname__
    init.__module__ = original.__module__
    cls.__init__ = init
    return cls


__all__ = [
    "EventBus",
    "RequestArrived",
    "RequestCompleted",
    "RequestDenied",
    "RequestExecuting",
    "RequestFailed",
    "RetryScheduled",
    "SandboxAdmitted",
    "SandboxBusy",
    "SandboxColdStart",
    "SandboxIdle",
    "SandboxQueued",
    "SandboxRejected",
    "SandboxTerminated",
    "SimEvent",
    "slot_init",
]


@slot_init
@dataclass(frozen=True, **_SLOTS)
class SimEvent:
    """Base class for all bus events; carries the simulation time."""

    time_s: float


@slot_init
@dataclass(frozen=True, **_SLOTS)
class RequestArrived(SimEvent):
    """A request entered the platform (organic arrival or retry re-injection).

    Published by the platform simulator only when span emission is enabled
    (an observability layer is attached) -- the hot path stays allocation-free
    otherwise.  ``parent_id`` is the request id of the failed attempt this
    arrival retries (empty for organic, attempt-1 traffic); the trace layer
    uses it to link retry chains.
    """

    request_id: str
    function_name: str = ""
    attempts: int = 1
    retry_wait_s: float = 0.0
    parent_id: str = ""
    tenant: str = ""


@slot_init
@dataclass(frozen=True, **_SLOTS)
class RequestExecuting(SimEvent):
    """A request was admitted into a sandbox and (modulo contention) started.

    Published under the same span-emission gate as :class:`RequestArrived`.
    ``cold_start`` marks requests that waited for the sandbox's cold
    initialisation; ``rate_factor`` is the feedback-layer service rate the
    sandbox is running at (1.0 without feedback).
    """

    request_id: str
    sandbox_name: str = ""
    cold_start: bool = False
    rate_factor: float = 1.0


@slot_init
@dataclass(frozen=True, **_SLOTS)
class RetryScheduled(SimEvent):
    """A platform simulator scheduled a failed request's retry.

    Published right after the :class:`RequestFailed` it answers, once the
    client retry loop granted a backoff.  ``request_id`` is the *failed* attempt (the parent of the upcoming
    arrival); the re-injected arrival fires ``delay_s`` later and will carry
    ``next_attempt`` as its attempt number.
    """

    request_id: str
    function_name: str = ""
    next_attempt: int = 2
    delay_s: float = 0.0


@slot_init
@dataclass(frozen=True, **_SLOTS)
class RequestCompleted(SimEvent):
    """A request finished; ``outcome`` is the domain-level outcome record."""

    outcome: Any


@slot_init
@dataclass(frozen=True, **_SLOTS)
class RequestFailed(SimEvent):
    """A request will never be served; ``outcome`` is the failure record.

    Published by the platform simulator when the execution-feedback layer
    reports that the fleet rejected the cold-started sandbox the request was
    waiting on (admission backpressure with a full or disabled queue).  The
    payload is a :class:`repro.platform.metrics.FailedRequest`-shaped record
    (request id, arrival, failure time, reason) -- loosely typed here because
    the bus sits below the domain layers.
    """

    outcome: Any


@slot_init
@dataclass(frozen=True, **_SLOTS)
class RequestDenied(SimEvent):
    """Admission control refused a request before any capacity was burned.

    Published by the platform simulator when the tenancy layer's
    :class:`~repro.tenancy.admission.AdmissionController` denies an arrival
    (the tenant's credit account is exhausted and its policy says deny rather
    than queue).  Denials are terminal and client-visible -- they model a
    throttling response, so the retry loop never re-injects them.
    """

    request_id: str
    tenant: str = ""
    function_name: str = ""
    reason: str = "credits"


@slot_init
@dataclass(frozen=True, **_SLOTS)
class SandboxColdStart(SimEvent):
    """A new sandbox started cold-initialising, with its demand on the fleet.

    Fleet placement and cost metering need the function identity, the
    resource allocation, and the expected initialisation duration.
    """

    sandbox_name: str
    function_name: str = ""
    alloc_vcpus: float = 0.0
    alloc_memory_gb: float = 0.0
    init_duration_s: float = 0.0


@slot_init
@dataclass(frozen=True, **_SLOTS)
class SandboxBusy(SimEvent):
    """An idle (or freshly initialised) sandbox started serving requests."""

    sandbox_name: str
    concurrency: int = 1


@slot_init
@dataclass(frozen=True, **_SLOTS)
class SandboxIdle(SimEvent):
    """A sandbox drained its last request and entered the keep-alive phase."""

    sandbox_name: str


@slot_init
@dataclass(frozen=True, **_SLOTS)
class SandboxTerminated(SimEvent):
    """A sandbox was torn down, with the reason.

    ``reason`` is ``"keepalive_expire"`` (its keep-alive window elapsed
    without a new request), ``"scale_down"`` (the autoscaler removed it
    while idle) or ``"admission_rejected"`` (the fleet refused it for good).
    """

    sandbox_name: str
    reason: str = ""


@slot_init
@dataclass(frozen=True, **_SLOTS)
class SandboxQueued(SimEvent):
    """A cold-started sandbox found no host and entered the admission queue.

    Published by the fleet layer when admission backpressure is enabled:
    instead of dropping an unplaceable sandbox, the fleet parks it in a
    bounded queue and retries on every capacity release.  ``queue_depth`` is
    the depth *after* this sandbox joined.
    """

    sandbox_name: str
    queue_depth: int = 0


@slot_init
@dataclass(frozen=True, **_SLOTS)
class SandboxAdmitted(SimEvent):
    """The fleet placed a sandbox on a host.

    Published on every successful placement.  ``queue_wait_s`` is zero for
    sandboxes placed directly on cold start and positive for sandboxes that
    waited in the admission queue until capacity was released.
    """

    sandbox_name: str
    host_name: str = ""
    queue_wait_s: float = 0.0


@slot_init
@dataclass(frozen=True, **_SLOTS)
class SandboxRejected(SimEvent):
    """The fleet refused a sandbox for good.

    ``reason`` is ``"oversized"`` (the demand exceeds every zone's host
    shape), ``"no_capacity"`` (no host fits and queueing is disabled), or
    ``"queue_full"`` (the bounded admission queue is at its depth limit).
    """

    sandbox_name: str
    reason: str = ""


Subscriber = Callable[[SimEvent], None]


class EventBus:
    """Deterministic typed pub/sub: exact type first, then bases in MRO order.

    ``publish`` dispatches off a per-concrete-type cache: the first publish of
    an event type resolves its full subscriber chain (exact type, then each
    base in MRO order) into one flat tuple, and every later publish reuses it
    with a single dict lookup -- no MRO walk, no per-base list copy, no
    allocation.  ``subscribe``/``unsubscribe`` bump a version counter that
    lazily invalidates every cached chain.

    The resolved tuple is also the dispatch *snapshot*: a callback that
    changes subscriptions mid-dispatch changes what the next publish sees,
    never the publish that is currently delivering.

    :meth:`forward_to` chains buses (each co-simulated function's own bus
    feeds the cluster bus) without publishing twice: the downstream bus's
    chain is spliced into this bus's resolved chains at the point where the
    forwarding subscription was made.
    """

    __slots__ = ("_subscribers", "_resolved", "_version", "_profiler", "_upstream")

    def __init__(self) -> None:
        self._subscribers: Dict[Type[SimEvent], List[Subscriber]] = {}
        #: concrete event type -> (version the chain was resolved at, chain).
        self._resolved: Dict[Type[SimEvent], Tuple[int, Tuple[Subscriber, ...]]] = {}
        #: Bumped on every subscription change; stale chains re-resolve lazily.
        self._version = 0
        # Dormant profiling slot (see repro.obs.profile): None keeps publish()
        # on the exact pre-profiling path.
        self._profiler = None
        #: Buses that forward into this one (see :meth:`forward_to`).
        self._upstream: List["EventBus"] = []

    def set_profiler(self, profiler) -> None:
        """Install an opt-in publish profiler (``None`` restores the fast path).

        Buses forwarding into this one share it: their publishes deliver to
        this bus's subscribers too.
        """
        self._profiler = profiler
        for bus in self._upstream:
            bus.set_profiler(profiler)

    def subscribe(self, event_type: Type[SimEvent], callback: Subscriber) -> Subscriber:
        """Register ``callback`` for events of ``event_type`` (or subclasses)."""
        self._subscribers.setdefault(event_type, []).append(callback)
        self._invalidate()
        return callback

    def unsubscribe(self, event_type: Type[SimEvent], callback: Subscriber) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        callbacks = self._subscribers.get(event_type, [])
        if callback in callbacks:
            callbacks.remove(callback)
            self._invalidate()

    def forward_to(self, downstream: "EventBus") -> None:
        """Deliver every event published here to ``downstream``'s subscribers too.

        Same delivery order as subscribing ``downstream.publish`` to
        :class:`SimEvent` right now, but each event is published once: the
        downstream chain is spliced into this bus's resolved chains, and a
        downstream subscription change invalidates them.
        """
        # The downstream bus itself stands in the subscriber list as the
        # splice point.
        self._subscribers.setdefault(SimEvent, []).append(downstream)  # type: ignore[arg-type]
        downstream._upstream.append(self)
        if downstream._profiler is not None:
            self._profiler = downstream._profiler
        self._invalidate()

    def _invalidate(self) -> None:
        """Mark every cached chain stale, here and on buses forwarding here."""
        self._version += 1
        for bus in self._upstream:
            bus._invalidate()

    def _chain(self, event_type: Type[SimEvent]) -> Tuple[Subscriber, ...]:
        entry = self._resolved.get(event_type)
        if entry is None or entry[0] != self._version:
            entry = self._resolve(event_type)
        return entry[1]

    def _resolve(self, event_type: Type[SimEvent]) -> Tuple[int, Tuple[Subscriber, ...]]:
        """Flatten ``event_type``'s subscriber chain (exact first, then MRO bases)."""
        chain: List[Subscriber] = []
        for klass in event_type.__mro__:
            if klass is object:
                break
            for callback in self._subscribers.get(klass, ()):
                if isinstance(callback, EventBus):
                    chain.extend(callback._chain(event_type))
                else:
                    chain.append(callback)
        entry = (self._version, tuple(chain))
        self._resolved[event_type] = entry
        return entry

    def hears(self, event_type: Type[SimEvent]) -> bool:
        """Whether a publish of ``event_type`` would reach any subscriber now.

        Reads the same cached, version-checked chain :meth:`publish` delivers
        to, so subscribers reached only through :meth:`forward_to` count.  A
        publisher whose record exists only for its subscribers asks first and
        skips building it when nobody listens.
        """
        entry = self._resolved.get(event_type)
        if entry is None or entry[0] != self._version:
            entry = self._resolve(event_type)
        return bool(entry[1])

    def publish(self, event: SimEvent) -> None:
        """Deliver ``event`` to all matching subscribers in deterministic order."""
        event_type = event.__class__
        entry = self._resolved.get(event_type)
        if entry is None or entry[0] != self._version:
            entry = self._resolve(event_type)
        chain = entry[1]
        profiler = self._profiler
        if profiler is None:
            if len(chain) == 1:
                # The common shape on hot buses: exactly one subscriber per
                # concrete type (a metrics recorder, the fleet, a forwarder).
                chain[0](event)
                return
            for callback in chain:
                callback(event)
            return
        start = perf_counter()
        for callback in chain:
            callback(event)
        profiler.record_publish(event_type.__name__, len(chain), perf_counter() - start)
