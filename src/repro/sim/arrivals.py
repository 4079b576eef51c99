"""Batched arrival generation, streamed into the kernel in bounded chunks.

Scheduling one heap event per request up front is what caps simulation scale:
a million-request run would materialize a million-entry list *and* a
million-entry heap before the first event fires.  This module replaces that
with two pieces:

- :class:`ArrivalSource` -- a finite, sorted arrival-time sequence that is
  *generated* in numpy-vectorized chunks instead of one scalar RNG call per
  request.  The Poisson source draws whole blocks of exponentials through the
  same ``np.random.default_rng(seed)`` stream the scalar loop used, and a
  carried cumulative sum keeps every produced time **bit-identical** to the
  one-draw-at-a-time implementation (same draws, same left-to-right float
  additions).
- :class:`ArrivalStream` -- feeds a source's events into a
  :class:`~repro.sim.kernel.SimulationKernel` one chunk at a time.  It
  reserves the full block of tie-break sequence numbers up front
  (:meth:`~repro.sim.kernel.SimulationKernel.reserve_seqs`), then schedules
  lazily: the last event of each chunk carries a refill marker, and the
  arrival handler pushes the next chunk *synchronously inside that event*,
  before the kernel can pop anything later.  Arrivals are monotone and
  reserved seqs preserve rank, so the kernel's pop order -- and therefore
  every downstream output -- is byte-identical to eager scheduling, while
  the heap never holds more than one chunk of pending arrivals.

The determinism contract is pinned by the property tests in
``tests/test_sim_arrivals.py``: identical fingerprints across chunk sizes,
seeds and horizons, with and without retry re-injection.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalSource",
    "ArrivalStream",
    "ConstantRateSource",
    "DEFAULT_CHUNK_SIZE",
    "PoissonSource",
]

#: The arrival processes a deployment or grid point can name.
ARRIVAL_PROCESSES: Tuple[str, ...] = ("constant", "poisson")

#: Default number of arrivals generated and scheduled per chunk.  Large enough
#: to amortize the numpy call overhead, small enough that pending arrivals
#: stay a rounding error next to the rest of the heap.
DEFAULT_CHUNK_SIZE = 4096


class ArrivalSource:
    """A finite, sorted sequence of arrival times, generable in chunks.

    Implementations must yield chunks of plain python floats in
    non-decreasing order, be replayable (every ``chunks()`` call restarts
    from the beginning), and produce the *same concatenated sequence for
    every chunk size* -- that invariance is what lets the stream layer pick
    its batch size freely without moving an event.
    """

    def count(self) -> int:
        """Total number of arrivals this source will produce."""
        raise NotImplementedError

    def last_arrival_s(self) -> float:
        """The final arrival time (``0.0`` for an empty source)."""
        raise NotImplementedError

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[List[float]]:
        """Yield the arrival times as non-empty lists of at most ``chunk_size``."""
        raise NotImplementedError

    def times(self) -> List[float]:
        """Materialize the full arrival list (for small runs and tests)."""
        out: List[float] = []
        for chunk in self.chunks():
            out.extend(chunk)
        return out


class ConstantRateSource(ArrivalSource):
    """Evenly spaced arrivals at ``rps`` requests/second for ``duration_s``.

    Chunk ``i`` of the sequence is ``start_s + k * (1 / rps)`` for the ``k``
    in the chunk's index range, computed as one vectorized expression per
    chunk; :func:`repro.workloads.traffic.constant_rate_arrivals` is the
    materialized list.
    """

    __slots__ = ("rps", "duration_s", "start_s", "_count", "_interval")

    def __init__(self, rps: float, duration_s: float, start_s: float = 0.0) -> None:
        if rps <= 0:
            raise ValueError("rps must be positive")
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        self.rps = rps
        self.duration_s = duration_s
        self.start_s = start_s
        self._count = int(round(rps * duration_s))
        self._interval = 1.0 / rps

    def count(self) -> int:
        return self._count

    def last_arrival_s(self) -> float:
        if not self._count:
            return 0.0
        return self.start_s + (self._count - 1) * self._interval

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[List[float]]:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        for low in range(0, self._count, chunk_size):
            high = min(low + chunk_size, self._count)
            indices = np.arange(low, high, dtype=np.float64)
            yield (self.start_s + indices * self._interval).tolist()


class PoissonSource(ArrivalSource):
    """Poisson-process arrivals at mean rate ``rps`` over ``duration_s``.

    Bit-identical to :func:`repro.workloads.traffic.poisson_arrivals` for the
    same ``seed``: block draws from ``np.random.default_rng(seed)`` consume
    the exact value stream the scalar one-draw-per-request loop consumed, and
    the carried ``np.cumsum`` performs the same left-to-right additions as
    the scalar ``t += draw`` accumulation.  The arrival *count* of a Poisson
    source is not known analytically, so the first call that needs it runs a
    counting pass over the chunk generator (discarding the arrays); the
    scheduling pass then regenerates the identical sequence from the seed.
    """

    __slots__ = ("rps", "duration_s", "seed", "start_s", "_count", "_last")

    #: Chunk size of the internal counting pass (independent of the caller's
    #: scheduling chunk size -- the sequence is chunk-size invariant).
    _SCAN_CHUNK = 8192

    def __init__(self, rps: float, duration_s: float, seed: int = 0, start_s: float = 0.0) -> None:
        if rps <= 0:
            raise ValueError("rps must be positive")
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        self.rps = rps
        self.duration_s = duration_s
        self.seed = seed
        self.start_s = start_s
        self._count: Optional[int] = None
        self._last = 0.0

    def _raw_chunks(self, chunk_size: int) -> Iterator[np.ndarray]:
        """Yield non-empty float64 arrays of in-horizon arrival times."""
        rng = np.random.default_rng(self.seed)
        scale = 1.0 / self.rps
        t = self.start_s
        end = self.start_s + self.duration_s
        while True:
            draws = rng.exponential(scale, size=chunk_size)
            # Prepending the carry before cumsum reproduces the scalar
            # accumulation exactly: element k is ((t + d1) + d2) + ... + dk.
            times = np.cumsum(np.concatenate(((t,), draws)))[1:]
            cut = int(np.searchsorted(times, end, side="left"))
            if cut < times.shape[0]:
                # The (cut+1)-th draw crossed the horizon: the scalar loop
                # breaks on `t >= end` without emitting it.
                if cut:
                    yield times[:cut]
                return
            yield times
            t = float(times[-1])

    def _ensure_scanned(self) -> None:
        if self._count is not None:
            return
        count = 0
        last = 0.0
        for times in self._raw_chunks(self._SCAN_CHUNK):
            count += times.shape[0]
            last = float(times[-1])
        self._count = count
        self._last = last

    def count(self) -> int:
        self._ensure_scanned()
        assert self._count is not None
        return self._count

    def last_arrival_s(self) -> float:
        self._ensure_scanned()
        return self._last

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[List[float]]:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        for times in self._raw_chunks(chunk_size):
            yield times.tolist()


class ArrivalStream:
    """Feeds an :class:`ArrivalSource` into a kernel one chunk at a time.

    ``attach`` reserves the source's full block of sequence numbers and
    schedules the first chunk.  Every chunk's last event (except the final
    chunk's) carries ``{"stream": self}``; the consuming arrival handler
    calls :meth:`push_next_chunk` while handling that event, which schedules
    the next chunk *before the kernel pops anything after it*.  Because
    arrivals are non-decreasing in time and reserved seqs preserve the
    eager tie-break ranks, the kernel's dispatch order is identical to
    having pushed every arrival up front -- while the heap holds at most
    ``chunk_size`` pending arrivals from this stream.
    """

    __slots__ = ("source", "chunk_size", "_kernel", "_kind", "_chunks", "_next_seq", "_remaining")

    def __init__(self, source: ArrivalSource, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.source = source
        self.chunk_size = int(chunk_size)
        self._kernel = None
        self._kind = ""
        self._chunks: Optional[Iterator[List[float]]] = None
        self._next_seq = 0
        self._remaining = 0

    def attach(self, kernel, kind: str) -> int:
        """Reserve every arrival's tie-break rank and push the first chunk.

        Returns the total number of arrivals the stream will schedule.
        """
        if self._kernel is not None:
            raise RuntimeError("ArrivalStream is already attached to a kernel")
        count = self.source.count()
        self._kernel = kernel
        self._kind = kind
        self._next_seq = kernel.reserve_seqs(count)
        self._remaining = count
        self._chunks = self.source.chunks(self.chunk_size)
        self.push_next_chunk()
        return count

    @property
    def pending(self) -> int:
        """Arrivals not yet scheduled onto the kernel heap."""
        return self._remaining

    def push_next_chunk(self) -> int:
        """Schedule the next chunk of arrivals; returns how many were pushed."""
        if self._chunks is None:
            raise RuntimeError("ArrivalStream.attach() must be called first")
        chunk = next(self._chunks, None)
        if not chunk:
            return 0
        kernel = self._kernel
        kind = self._kind
        seq = self._next_seq
        pushed = len(chunk)
        self._remaining -= pushed
        # Only the last event of a *non-final* chunk needs the refill marker;
        # everything else shares the kernel's immutable empty payload.
        marker_index = pushed - 1 if self._remaining > 0 else -1
        for offset, time_s in enumerate(chunk):
            data: Optional[Dict[str, Any]] = {"stream": self} if offset == marker_index else None
            kernel.schedule_at_seq(time_s, seq + offset, kind, data)
        self._next_seq = seq + pushed
        return pushed
