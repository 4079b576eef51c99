"""In-memory span tracing of the simulator's layers, installed from outside.

Nothing in ``src/`` knows about this module.  :func:`instrument` patches the
registration seams and public entry points of each layer *at class level*
for the duration of a ``with`` block, so every kernel handler, polled
process and bus subscriber created inside the block runs inside a span
labelled ``<module>:<qualname>`` (the module with its ``repro.`` prefix
dropped is the layer name, e.g. ``platform.invoker``).  Leaving the block
restores every patched attribute, so untraced runs in the same process take
the unmodified code paths.

Spans live in four flat arrays (layer label, parent index, start, end) and
are only rolled up when the run is over: a span's self time is its duration
minus the durations of its direct children, and a layer's self time is the
sum over its spans.  Time inside the root span that no layer span covers is
the benchmark's own glue, reported as the residual.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Label of the root span every traced repetition runs inside.
ROOT = "bench:root"


def layer_of(label: str) -> str:
    """The layer (module) part of a ``<module>:<qualname>`` span label."""
    return label.split(":", 1)[0]


def label_for(fn: object, suffix: str = "") -> str:
    """``<module>:<qualname>`` of a callable, ``repro.`` prefix dropped."""
    module = getattr(fn, "__module__", None) or "builtins"
    qualname = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}:{qualname}{suffix}"


class SpanRecorder:
    """Flat in-memory span store plus named tallies; one per traced run."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.label_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        #: Counts measured where the work happens (e.g. hosts scanned).
        self.tallies: Dict[str, float] = {}

    def _label_id(self, label: str) -> int:
        index = self._label_ids.get(label)
        if index is None:
            index = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return index

    def tally(self, key: str, amount: float = 1.0) -> None:
        self.tallies[key] = self.tallies.get(key, 0.0) + amount

    def wrap(self, label: str, fn: Callable, tally: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``tally(args, result)`` runs after the call."""
        label_id = self._label_id(label)
        label_ids_append = self.label_ids.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends_append = self.ends.append
        ends = self.ends
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(ends)
            label_ids_append(label_id)
            parents_append(stack[-1] if stack else -1)
            ends_append(0.0)
            stack.append(index)
            starts_append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if tally is not None:
                tally(args, result)
            return result

        # Keep the callee's identity (module, qualname) so a traced callable
        # registered through a traced seam keeps its own layer label.
        return functools.update_wrapper(traced, fn)

    def __len__(self) -> int:
        return len(self.ends)

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """Per-label ``spans``, ``total_s`` and ``self_s`` from the stored spans."""
        count = len(self.ends)
        if count == 0:
            return {}
        starts = np.frombuffer(self.starts, dtype=np.float64, count=count)
        ends = np.frombuffer(self.ends, dtype=np.float64, count=count)
        parents = np.frombuffer(self.parents, dtype=np.int32, count=count)
        label_ids = np.frombuffer(self.label_ids, dtype=np.int32, count=count)
        durations = ends - starts
        child_time = np.zeros(count)
        nested = parents >= 0
        np.add.at(child_time, parents[nested], durations[nested])
        self_times = durations - child_time
        labels = len(self.labels)
        spans = np.bincount(label_ids, minlength=labels)
        totals = np.bincount(label_ids, weights=durations, minlength=labels)
        selfs = np.bincount(label_ids, weights=self_times, minlength=labels)
        return {
            label: {
                "spans": int(spans[index]),
                "total_s": float(totals[index]),
                "self_s": float(selfs[index]),
            }
            for index, label in enumerate(self.labels)
        }


def by_layer(rollup: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Fold a per-label rollup into per-layer ``spans`` and ``self_s``."""
    layers: Dict[str, Dict[str, float]] = {}
    for label, stats in rollup.items():
        entry = layers.setdefault(layer_of(label), {"spans": 0, "self_s": 0.0})
        entry["spans"] += stats["spans"]
        entry["self_s"] += stats["self_s"]
    return layers


# ----------------------------------------------------------------------
# Installing the spans
# ----------------------------------------------------------------------


class _TracedProcess:
    """A polled kernel process whose polls and dispatches run inside spans."""

    def __init__(self, process: object, recorder: SpanRecorder) -> None:
        self.inner = process
        # The kernel stops an unbounded run when only periodic processes are
        # pending; the proxy must answer that question like the process.
        self.periodic = getattr(process, "periodic", False)
        self.next_event_time = recorder.wrap(
            label_for(type(process), ".next_event_time"), process.next_event_time
        )
        self.handle = recorder.wrap(label_for(type(process), ".handle"), process.handle)


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _method(recorder: SpanRecorder, patches: _Patches, owner: object, name: str,
            tally=None) -> None:
    """Wrap ``owner.name`` (a class or module attribute) in a span, if it exists.

    A seam a later refactor removed is skipped: its counts read 0 and its
    time moves to the caller's layer, but the traced run still works.
    """
    original = owner.__dict__.get(name)
    if original is not None:
        patches.set(owner, name, recorder.wrap(label_for(original), original, tally))


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, sweep: bool = False):
    """Patch the layer seams for the duration of the block.

    By default this covers the in-process simulator layers (kernel, bus,
    arrivals, platform, fleet, placement, billing, tenancy, traces).  With
    ``sweep`` it covers the main-process side of a sweep instead (grid building,
    the sweep loop and the checkpoint journal): pool workers fork from the
    main process and would inherit simulator spans they can never report.
    """
    patches = _Patches()
    try:
        if sweep:
            _install_sweep(recorder, patches)
        else:
            _install_simulation(recorder, patches)
        yield recorder
    finally:
        patches.undo()


def _install_simulation(recorder: SpanRecorder, patches: _Patches) -> None:
    from repro.billing import inflation, meter
    from repro.billing.calculator import BillingCalculator
    from repro.cluster import cosim, fleet
    from repro.platform.invoker import PlatformSimulator
    from repro.platform.sandbox import Sandbox
    from repro.sim.arrivals import ArrivalStream
    from repro.sim.events import EventBus
    from repro.sim.kernel import SimulationKernel
    from repro.tenancy.admission import AdmissionController
    from repro.traces.generator import TraceGenerator

    wrap = recorder.wrap
    tally = recorder.tally

    # Registration seams: whatever registers through them runs in a span
    # labelled by the callable's own module.
    original_on = SimulationKernel.on
    original_add_process = SimulationKernel.add_process
    original_subscribe = EventBus.subscribe

    def on(self, kind, handler):
        return original_on(self, kind, wrap(label_for(handler), handler))

    def add_process(self, process):
        return original_add_process(self, _TracedProcess(process, recorder))

    def subscribe(self, event_type, callback):
        # A forwarding subscriber (another bus's publish) is already traced.
        traced = callback
        if getattr(callback, "__wrapped__", None) is None:
            traced = wrap(label_for(callback), callback)
        original_subscribe(self, event_type, traced)
        return callback

    patches.set(SimulationKernel, "on", on)
    patches.set(SimulationKernel, "add_process", add_process)
    patches.set(EventBus, "subscribe", subscribe)

    # Public entry points.  The kernel's event count is the return value of
    # run(); publish() counts every delivery, forwarded ones included.
    _method(recorder, patches, SimulationKernel, "run",
            lambda args, result: tally("sim.kernel.events", result))
    _method(recorder, patches, EventBus, "publish")
    _method(recorder, patches, ArrivalStream, "push_next_chunk")
    _method(recorder, patches, Sandbox, "advance",
            lambda args, result: tally("platform.sandbox.requests_advanced",
                                       len(args[0].executing)))
    for name in ("admit", "remove", "next_completion_time"):
        _method(recorder, patches, Sandbox, name)
    _method(recorder, patches, PlatformSimulator, "resume_admission")

    def count_route(args, result):
        tally("platform.invoker.routes")
        tally("platform.invoker.sandboxes_scanned", len(getattr(args[0], "_sandboxes", ())))

    _method(recorder, patches, PlatformSimulator, "_pick_sandbox", count_route)
    _method(recorder, patches, fleet.Fleet, "admit",
            lambda args, result: tally("cluster.fleet.admitted_direct", result is not None))
    _method(recorder, patches, fleet.Fleet, "release")
    # The fleet imports choose_host by name, so patch that binding.
    _method(recorder, patches, fleet, "choose_host",
            lambda args, result: tally("cluster.placement.hosts_scanned", len(args[0])))
    for cls, name in (
        (cosim.ClusterSimulator, "__init__"),
        (cosim.ClusterSimulator, "run"),
        (AdmissionController, "admit"),
        (BillingCalculator, "bill"),
        (BillingCalculator, "billable_resources"),
        (meter.CostMeter, "meter_request"),
        (TraceGenerator, "generate"),
        (inflation.InflationAnalyzer, "analyze"),
    ):
        _method(recorder, patches, cls, name)
    _method(recorder, patches, meter, "replay_trace")


def _install_sweep(recorder: SpanRecorder, patches: _Patches) -> None:
    from repro.sim import sweep
    from repro.sim.checkpoint import SweepJournal

    _method(recorder, patches, SweepJournal, "record")
    for name in ("build_grid", "run_sweep"):
        _method(recorder, patches, sweep, name)
