"""Pluggable execution backends for the scenario-sweep orchestrator.

:func:`repro.sim.sweep.run_sweep` delegates *how* grid points execute to a
:class:`SweepBackend`: an object whose ``run`` method receives ``(index,
scenario)`` work items and yields one :class:`PointOutcome` per item, in
whatever order points complete.  The sweep layer owns everything order- and
durability-sensitive -- reassembling rows into grid order, journaling
completions to the checkpoint, raising :class:`SweepPointError` -- so every
backend produces byte-identical results by construction and a new transport
only has to implement work distribution.

Backends:

- ``serial`` -- in-process loop, no pool (the default).
- ``multiprocessing[:N]`` -- a process pool of ``N`` fork-started workers
  (every core without ``N``) pulling one point at a time.

A remote transport (e.g. a multi-node work queue) would plug in as another
:class:`SweepBackend`; every grid in the reproduction fits on one host.

Failures never abort a backend mid-stream: :func:`execute_point` captures
worker exceptions as *data* on the outcome (type name, message, formatted
traceback), so the parent can journal every completed point before failing
the sweep, and transports never ship live exception objects -- which may not
pickle -- across process boundaries.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Protocol, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.sim.sweep import Scenario

__all__ = [
    "BACKEND_NAMES",
    "MultiprocessingBackend",
    "PointOutcome",
    "SerialBackend",
    "SweepBackend",
    "SweepPointError",
    "execute_point",
    "resolve_backend",
]

WorkItem = Tuple[int, "Scenario"]
Rows = List[Dict[str, object]]

#: The backend names :func:`resolve_backend` accepts (multiprocessing also
#: takes an optional ``:N`` suffix).
BACKEND_NAMES: Tuple[str, ...] = ("serial", "multiprocessing")


class SweepPointError(RuntimeError):
    """One grid point failed; names the scenario so 10k-point sweeps stay debuggable.

    Raised by :func:`repro.sim.sweep.run_sweep` in the *parent* process after
    every already-completed row has been flushed to the checkpoint journal
    (when one is attached), so a failing point costs exactly the failed point
    -- never the sweep's finished work.  ``traceback_text`` carries the
    worker-side traceback when the point ran in another process.
    """

    def __init__(
        self,
        scenario_id: str,
        seed: int = 0,
        message: str = "",
        error_type: Optional[str] = None,
        traceback_text: Optional[str] = None,
    ) -> None:
        self.scenario_id = scenario_id
        self.seed = seed
        self.error_type = error_type
        self.traceback_text = traceback_text
        detail = f"{error_type}: {message}" if error_type else message
        super().__init__(f"sweep point {scenario_id!r} (seed {seed}) failed: {detail}")


@dataclass(frozen=True)
class PointOutcome:
    """What executing one grid point produced (picklable across transports)."""

    index: int
    scenario_id: str
    seed: int
    rows: Optional[Rows] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    traceback_text: Optional[str] = None
    #: The live exception, kept by in-process backends only so ``raise ...
    #: from cause`` preserves the full chain; cross-process transports leave
    #: it ``None`` (exceptions may not pickle) and rely on ``traceback_text``.
    cause: Optional[BaseException] = None

    @property
    def failed(self) -> bool:
        return self.error_type is not None

    def to_error(self) -> SweepPointError:
        return SweepPointError(
            self.scenario_id,
            self.seed,
            message=self.error_message or "",
            error_type=self.error_type,
            traceback_text=self.traceback_text,
        )


def _error_text(error: BaseException) -> str:
    """Human-readable message (str() of a KeyError is the repr of its argument)."""
    if isinstance(error, KeyError) and error.args:
        return str(error.args[0])
    return str(error)


def execute_point(item: WorkItem, keep_cause: bool = False) -> PointOutcome:
    """Run one ``(index, scenario)`` work item, capturing any failure as data."""
    index, scenario = item
    from repro.sim.sweep import run_scenario

    try:
        rows = run_scenario(scenario)
    except Exception as error:
        return PointOutcome(
            index=index,
            scenario_id=scenario.scenario_id,
            seed=scenario.seed,
            error_type=type(error).__name__,
            error_message=_error_text(error),
            traceback_text=traceback.format_exc(),
            cause=error if keep_cause else None,
        )
    return PointOutcome(index=index, scenario_id=scenario.scenario_id, seed=scenario.seed, rows=rows)


class SweepBackend(Protocol):
    """The execution seam: run work items, yield outcomes in completion order."""

    name: str

    def run(self, items: Iterable[WorkItem]) -> Iterator[PointOutcome]:
        ...  # pragma: no cover - protocol


class SerialBackend:
    """In-process, one point at a time (the default backend)."""

    name = "serial"

    def run(self, items: Iterable[WorkItem]) -> Iterator[PointOutcome]:
        for item in items:
            yield execute_point(item, keep_cause=True)


class MultiprocessingBackend:
    """A pool of ``processes`` fork-started workers (``None``: every core).

    Each outcome is yielded the moment its point completes, so the sweep
    layer journals it straight away.  A worker that dies mid-point breaks the
    pool, and the sweep fails on a point that had not finished instead of
    waiting for it forever.
    """

    name = "multiprocessing"

    def __init__(self, processes: Optional[int] = None) -> None:
        self.processes = multiprocessing.cpu_count() if processes is None else processes

    def run(self, items: Iterable[WorkItem]) -> Iterator[PointOutcome]:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        items = list(items)
        if not items:
            return
        pool = ProcessPoolExecutor(
            min(self.processes, len(items)), mp_context=multiprocessing.get_context("fork")
        )
        try:
            futures = {pool.submit(execute_point, item): item for item in items}
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool as error:
                    index, scenario = futures[future]
                    message = f"a pool worker died before this point finished ({error})"
                    yield PointOutcome(
                        index, scenario.scenario_id, scenario.seed,
                        error_type=type(error).__name__, error_message=message,
                    )
                    return
                yield outcome
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def resolve_backend(backend: Union[str, SweepBackend, None]) -> SweepBackend:
    """A backend instance from a spec string, an instance, or ``None`` (serial).

    Spec grammar: ``"serial"`` or ``"multiprocessing[:N]"`` -- a pool of ``N
    >= 1`` workers, every core without ``N``.  A malformed spec raises
    ``ValueError`` naming it.
    """
    if backend is None:
        return SerialBackend()
    if not isinstance(backend, str):
        return backend
    name, _, spec = backend.partition(":")
    name = name.strip().lower()
    if name == "serial":
        return SerialBackend()
    if name == "multiprocessing":
        if not spec:
            return MultiprocessingBackend()
        try:
            processes = int(spec)
        except ValueError:
            processes = 0
        if processes < 1:
            raise ValueError(
                f"invalid multiprocessing worker count in backend spec {backend!r} "
                "(expected an integer >= 1)"
            )
        return MultiprocessingBackend(processes)
    raise ValueError(f"unknown sweep backend {backend!r}; choose from: {', '.join(BACKEND_NAMES)}")
