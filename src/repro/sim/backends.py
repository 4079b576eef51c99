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
- ``multiprocessing[:N]`` -- a ``multiprocessing.Pool`` of ``N`` workers
  (every core without ``N``) pulling one point at a time.
- ``socket-queue`` -- a stdlib TCP work-queue server for multi-node sweeps:
  remote workers started with ``repro-serverless-costs sweep-worker
  --connect host:port`` pull pickled ``(index, Scenario)`` items and push
  back pickled outcomes.  Items whose worker dies mid-point are re-queued to
  the survivors, so the sweep outlives individual workers.

Failures never abort a backend mid-stream: :func:`execute_point` captures
worker exceptions as *data* on the outcome (type name, message, formatted
traceback), so the parent can journal every completed point before failing
the sweep, and transports never ship live exception objects -- which may not
pickle -- across process or network boundaries.

The socket backend's wire protocol is pickle over a length-prefixed TCP
stream between mutually trusting hosts (a sweep worker executes arbitrary
registered runner functions *by design*); run it on a private network, like
any work queue.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.sim.sweep import Scenario

__all__ = [
    "BACKEND_NAMES",
    "MultiprocessingBackend",
    "PointOutcome",
    "SerialBackend",
    "SocketQueueBackend",
    "SweepBackend",
    "SweepPointError",
    "execute_point",
    "resolve_backend",
    "run_sweep_worker",
]

WorkItem = Tuple[int, "Scenario"]
Rows = List[Dict[str, object]]

#: The backend names :func:`resolve_backend` accepts (multiprocessing also
#: takes an optional ``:N`` suffix, socket-queue an optional ``[:host]:port``).
BACKEND_NAMES: Tuple[str, ...] = ("serial", "multiprocessing", "socket-queue")


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
    """``multiprocessing.Pool`` fan-out over ``processes`` workers (``None``: every core).

    Each worker pulls the next point when it finishes one, and every outcome
    is yielded the moment it completes (``imap_unordered``), so the sweep
    layer journals it straight away; rows are reassembled by grid index, so
    the results match the serial backend's.
    """

    name = "multiprocessing"

    def __init__(self, processes: Optional[int] = None) -> None:
        self.processes = multiprocessing.cpu_count() if processes is None else processes

    def run(self, items: Iterable[WorkItem]) -> Iterator[PointOutcome]:
        items = list(items)
        if not items:
            return
        with multiprocessing.Pool(processes=min(self.processes, len(items))) as pool:
            yield from pool.imap_unordered(execute_point, items, chunksize=1)


# ----------------------------------------------------------------------
# Multi-node backend: a TCP work queue plus the worker loop behind the
# ``repro-serverless-costs sweep-worker`` subcommand.
# ----------------------------------------------------------------------

_HEADER = struct.Struct(">Q")


def _send(connection: socket.socket, payload: object) -> None:
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    connection.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(connection: socket.socket, length: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    while length:
        chunk = connection.recv(min(length, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        length -= len(chunk)
    return b"".join(chunks)


def _recv(connection: socket.socket) -> Optional[Tuple[object, ...]]:
    """One length-prefixed pickled message, or ``None`` on a clean hang-up."""
    header = _recv_exact(connection, _HEADER.size)
    if header is None:
        return None
    data = _recv_exact(connection, _HEADER.unpack(header)[0])
    if data is None:
        return None
    return pickle.loads(data)


class SocketQueueBackend:
    """Multi-node work queue over a plain TCP socket (stdlib only).

    The backend is the *server*: it binds at construction (so the address is
    known before the sweep starts -- pass ``port=0`` for an ephemeral port
    and read :attr:`address`), queues ``(index, Scenario)`` items, and hands
    one item at a time to each connected worker: a remote process started
    with ``repro-serverless-costs sweep-worker --connect host:port``.
    Outcomes stream back as they finish, which is inherently work-stealing
    -- a worker pulls its next item the moment it returns one.

    Fault tolerance: if a worker dies mid-point its in-flight item is
    re-queued to the survivors, so the sweep outlives individual workers.  A
    late duplicate (the first worker finished but its result was lost in the
    hang-up) is harmless -- the sweep layer deduplicates by grid index, and
    per-point derived seeds make both executions byte-identical anyway.

    ``timeout_s`` is an *idle* bound: the sweep fails if no outcome arrives
    for that long (e.g. no worker ever connects).  One sweep per instance;
    the listening socket closes when ``run`` finishes.
    """

    name = "socket-queue"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_s: Optional[float] = None,
        announce: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.timeout_s = timeout_s
        self.announce = announce
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self._used = False

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` workers should connect to."""
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def run(self, items: Iterable[WorkItem]) -> Iterator[PointOutcome]:
        if self._used:
            raise RuntimeError(
                "SocketQueueBackend instances are single-use (the listener closes "
                "with the sweep); construct a new one per run_sweep call"
            )
        self._used = True
        items = list(items)
        if not items:
            self.close()
            return
        work: "queue.Queue[WorkItem]" = queue.Queue()
        for item in items:
            work.put(item)
        results: "queue.Queue[PointOutcome]" = queue.Queue()
        done = threading.Event()
        handlers: List[threading.Thread] = []

        def serve(connection: socket.socket) -> None:
            in_flight: Optional[WorkItem] = None
            try:
                _recv(connection)  # worker hello (hostname, pid); identification only
                while not done.is_set():
                    try:
                        item = work.get(timeout=0.1)
                    except queue.Empty:
                        continue
                    in_flight = item
                    _send(connection, ("item", item))
                    reply = _recv(connection)
                    if reply is None:
                        raise ConnectionError("worker hung up mid-point")
                    results.put(reply[1])
                    in_flight = None
            except (OSError, ConnectionError, EOFError, pickle.UnpicklingError):
                if in_flight is not None:
                    work.put(in_flight)  # re-queue: the sweep outlives the worker
            finally:
                try:
                    _send(connection, ("shutdown",))
                except OSError:
                    pass
                connection.close()

        def accept() -> None:
            while not done.is_set():
                try:
                    connection, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                handler = threading.Thread(target=serve, args=(connection,), daemon=True)
                handler.start()
                handlers.append(handler)

        acceptor = threading.Thread(target=accept, daemon=True)
        acceptor.start()
        if self.announce is not None:
            host, port = self.address
            self.announce(
                f"sweep server listening on {host}:{port} ({len(items)} points); start "
                f"workers with: repro-serverless-costs sweep-worker --connect <host>:{port}"
            )
        seen: set = set()
        idle_deadline = None if self.timeout_s is None else time.monotonic() + self.timeout_s
        try:
            while len(seen) < len(items):
                try:
                    outcome = results.get(timeout=0.2)
                except queue.Empty:
                    if idle_deadline is not None and time.monotonic() > idle_deadline:
                        raise RuntimeError(
                            f"socket-queue sweep idle for {self.timeout_s}s with "
                            f"{len(items) - len(seen)} of {len(items)} points outstanding "
                            "-- are any sweep workers connected?"
                        )
                    continue
                if outcome.index in seen:
                    continue  # late duplicate from a re-queued item
                seen.add(outcome.index)
                if idle_deadline is not None:
                    idle_deadline = time.monotonic() + self.timeout_s
                yield outcome
        finally:
            done.set()
            self.close()
            acceptor.join(timeout=2.0)
            for handler in handlers:
                handler.join(timeout=2.0)


def run_sweep_worker(
    host: str,
    port: int,
    retry_window_s: float = 30.0,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Serve one socket-queue sweep: pull items, run them, push outcomes back.

    Connects to ``host:port`` -- retrying for ``retry_window_s``, so workers
    may be started before the server -- then executes each received
    ``(index, Scenario)`` item via :func:`execute_point` until the server
    sends shutdown or hangs up.  Returns the number of completed points.
    """
    deadline = time.monotonic() + max(retry_window_s, 0.0)
    connection: Optional[socket.socket] = None
    while connection is None:
        try:
            connection = socket.create_connection((host, port))
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)
    completed = 0
    try:
        _send(connection, ("hello", socket.gethostname(), os.getpid()))
        while True:
            message = _recv(connection)
            if message is None or message[0] == "shutdown":
                break
            outcome = execute_point(message[1])
            _send(connection, ("result", outcome))
            completed += 1
            if log is not None:
                status = "failed" if outcome.failed else "completed"
                log(f"{status} {outcome.scenario_id!r} ({completed} points so far)")
    finally:
        connection.close()
    return completed


def _spec_int(backend: str, text: str, low: int, high: Optional[int], what: str) -> int:
    """The integer ``text`` of a backend spec, or a ``ValueError`` naming the spec."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low or (high is not None and value > high):
        bound = f"{low}-{high}" if high is not None else f">= {low}"
        raise ValueError(
            f"invalid {what} in backend spec {backend!r} (expected an integer {bound})"
        )
    return value


def resolve_backend(
    backend: Union[str, SweepBackend, None],
    announce: Optional[Callable[[str], None]] = None,
) -> SweepBackend:
    """A backend instance from a spec string, an instance, or ``None`` (serial).

    Spec grammar: ``"serial"``; ``"multiprocessing[:N]"`` -- a pool of ``N >=
    1`` workers, every core without ``N``; ``"socket-queue"`` (ephemeral
    port on localhost), ``"socket-queue:PORT"`` (all interfaces) or
    ``"socket-queue:HOST:PORT"`` to choose the bind address workers connect
    to, with ``PORT`` in 0-65535.  A malformed spec raises ``ValueError``
    naming it.  ``announce`` is called with the socket server's listening
    address once the sweep starts.
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
        return MultiprocessingBackend(
            _spec_int(backend, spec, 1, None, "multiprocessing worker count")
        )
    if name == "socket-queue":
        host, port = "127.0.0.1", 0
        if spec:
            bind_host, _, bind_port = spec.rpartition(":")
            host = bind_host or "0.0.0.0"
            port = _spec_int(backend, bind_port, 0, 65535, "socket-queue port")
        return SocketQueueBackend(host=host, port=port, announce=announce)
    raise ValueError(f"unknown sweep backend {backend!r}; choose from: {', '.join(BACKEND_NAMES)}")
