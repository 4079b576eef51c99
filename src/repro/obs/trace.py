"""Cross-layer request tracing: stitch bus events into per-request spans.

The :class:`TraceCollector` is a pure bus subscriber.  It watches the typed
events the platform and fleet layers already publish -- plus the
obs-specific :class:`~repro.sim.events.RequestArrived` /
:class:`~repro.sim.events.RequestExecuting` markers emitted when tracing is
on -- and stitches them into one :class:`RequestSpan` per *attempt*:

    arrival -> (cold start / admission queue / ingress queue) -> executing
            -> completed | failed | censored-at-horizon
    arrival -> denied (tenant out of credits; nothing was routed)

Attempts are linked: a retry the platform simulator re-schedules (when its
:class:`~repro.sim.retry.RetryLoop` grants a backoff) carries its failed
parent's request id, so a retried request reads as a chain of spans
(attempt 1 failed -> attempt 2 failed -> attempt 3 completed).  Sandbox
lifecycles (cold start -> admitted/queued/rejected -> terminated) are
tracked alongside on their own lane.

Export targets:

- :meth:`TraceCollector.to_jsonl` -- one span dict per line, grep-friendly;
- :meth:`TraceCollector.chrome_trace` -- Chrome ``trace_event`` JSON (the
  array form), viewable in Perfetto / ``chrome://tracing``: one *process*
  row per function, one *thread* per request, ``X`` complete events for
  span phases, flow arrows from each failed attempt to its retry.

The collector never mutates simulation state, draws randomness, or schedules
kernel events -- attaching it leaves every simulated byte identical.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.sim.events import (
    EventBus,
    RequestArrived,
    RequestCompleted,
    RequestDenied,
    RequestExecuting,
    RequestFailed,
    SandboxAdmitted,
    SandboxColdStart,
    SandboxRejected,
    SandboxTerminated,
)

__all__ = ["RequestSpan", "SandboxSpan", "TraceCollector", "validate_chrome_trace"]

#: Span outcomes. ``denied`` = refused by tenant admission control before
#: routing; ``censored`` = still open when the run's horizon ended.
COMPLETED, FAILED, DENIED, CENSORED, OPEN = "completed", "failed", "denied", "censored", "open"

#: Sandbox lanes sit above request lanes inside a function's trace process.
_SANDBOX_TID_BASE = 1_000_000


class RequestSpan:
    """One request attempt's lifetime across the layers."""

    __slots__ = (
        "request_id", "function", "attempt", "parent_id", "arrival_s",
        "exec_start_s", "end_s", "outcome", "sandbox_name", "cold_start",
        "retry_wait_s", "fail_reason", "gave_up",
    )

    def __init__(self, request_id: str, function: str, attempt: int,
                 parent_id: str, arrival_s: float, retry_wait_s: float) -> None:
        self.request_id = request_id
        self.function = function
        self.attempt = attempt
        self.parent_id = parent_id
        self.arrival_s = arrival_s
        self.exec_start_s: Optional[float] = None
        self.end_s: Optional[float] = None
        self.outcome = OPEN
        self.sandbox_name = ""
        self.cold_start = False
        self.retry_wait_s = retry_wait_s
        self.fail_reason = ""
        self.gave_up = False

    @property
    def is_root(self) -> bool:
        return self.attempt == 1

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.arrival_s) if self.end_s is not None else float("nan")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "function": self.function,
            "attempt": self.attempt,
            "parent_id": self.parent_id,
            "arrival_s": self.arrival_s,
            "exec_start_s": self.exec_start_s,
            "end_s": self.end_s,
            "outcome": self.outcome,
            "sandbox": self.sandbox_name,
            "cold_start": self.cold_start,
            "retry_wait_s": self.retry_wait_s,
            "fail_reason": self.fail_reason,
            "gave_up": self.gave_up,
        }


class SandboxSpan:
    """One sandbox's lifetime: cold start -> admission -> teardown."""

    __slots__ = ("sandbox_name", "function", "cold_start_s", "admitted_s",
                 "queue_wait_s", "rejected", "end_s", "end_reason")

    def __init__(self, sandbox_name: str, function: str, cold_start_s: float) -> None:
        self.sandbox_name = sandbox_name
        self.function = function
        self.cold_start_s = cold_start_s
        self.admitted_s: Optional[float] = None
        self.queue_wait_s = 0.0
        self.rejected = False
        self.end_s: Optional[float] = None
        self.end_reason = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sandbox": self.sandbox_name,
            "function": self.function,
            "cold_start_s": self.cold_start_s,
            "admitted_s": self.admitted_s,
            "queue_wait_s": self.queue_wait_s,
            "rejected": self.rejected,
            "end_s": self.end_s,
            "end_reason": self.end_reason,
        }


def _owner_of(namespaced: str) -> str:
    """The simulator name prefix of a namespaced request/sandbox id."""
    return namespaced.split("/", 1)[0] if "/" in namespaced else ""


def _trailing_int(identifier: str) -> int:
    """The numeric suffix of ids like ``fn-00/req-0000042`` (stable lane ids)."""
    digits = ""
    for ch in reversed(identifier):
        if ch.isdigit():
            digits = ch + digits
        elif digits:
            break
    return int(digits) if digits else 0


class TraceCollector:
    """Stitches bus events into request + sandbox spans.  Read-only observer."""

    def __init__(self) -> None:
        self.spans: List[RequestSpan] = []
        self._by_request: Dict[str, RequestSpan] = {}
        self.sandbox_spans: List[SandboxSpan] = []
        self._by_sandbox: Dict[str, SandboxSpan] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, bus: EventBus) -> "TraceCollector":
        bus.subscribe(RequestArrived, self._on_arrived)
        bus.subscribe(RequestExecuting, self._on_executing)
        bus.subscribe(RequestCompleted, self._on_completed)
        bus.subscribe(RequestFailed, self._on_failed)
        bus.subscribe(RequestDenied, self._on_denied)
        bus.subscribe(SandboxColdStart, self._on_cold_start)
        bus.subscribe(SandboxAdmitted, self._on_sandbox_admitted)
        bus.subscribe(SandboxRejected, self._on_sandbox_rejected)
        bus.subscribe(SandboxTerminated, self._on_sandbox_terminated)
        return self

    # ------------------------------------------------------------------
    # Subscribers
    # ------------------------------------------------------------------

    def _on_arrived(self, event: RequestArrived) -> None:
        span = RequestSpan(
            request_id=event.request_id,
            function=event.function_name or _owner_of(event.request_id),
            attempt=event.attempts,
            parent_id=event.parent_id,
            arrival_s=event.time_s,
            retry_wait_s=event.retry_wait_s,
        )
        self.spans.append(span)
        self._by_request[event.request_id] = span

    def _on_executing(self, event: RequestExecuting) -> None:
        span = self._by_request.get(event.request_id)
        if span is None:
            return
        span.exec_start_s = event.time_s
        span.sandbox_name = event.sandbox_name
        span.cold_start = event.cold_start

    def _on_completed(self, event: RequestCompleted) -> None:
        outcome = event.outcome
        span = self._by_request.get(str(getattr(outcome, "request_id", "")))
        if span is None:
            return
        span.outcome = COMPLETED
        span.end_s = event.time_s
        # The outcome record is authoritative for where execution started
        # (a queued multi-concurrency request starts later than its admit).
        span.exec_start_s = float(getattr(outcome, "start_s", span.exec_start_s or event.time_s))
        if not span.sandbox_name:
            span.sandbox_name = str(getattr(outcome, "sandbox_name", ""))

    def _on_failed(self, event: RequestFailed) -> None:
        failure = event.outcome
        span = self._by_request.get(str(getattr(failure, "request_id", "")))
        if span is None:
            return
        span.outcome = FAILED
        span.end_s = event.time_s
        span.fail_reason = str(getattr(failure, "reason", ""))
        span.gave_up = bool(getattr(failure, "gave_up", False))
        if not span.sandbox_name:
            span.sandbox_name = str(getattr(failure, "sandbox_name", ""))

    def _on_denied(self, event: RequestDenied) -> None:
        span = self._by_request.get(event.request_id)
        if span is None:
            return
        span.outcome = DENIED
        span.end_s = event.time_s
        span.fail_reason = event.reason

    def _on_cold_start(self, event: SandboxColdStart) -> None:
        span = SandboxSpan(
            sandbox_name=event.sandbox_name,
            function=event.function_name or _owner_of(event.sandbox_name),
            cold_start_s=event.time_s,
        )
        self.sandbox_spans.append(span)
        self._by_sandbox[event.sandbox_name] = span

    def _on_sandbox_admitted(self, event: SandboxAdmitted) -> None:
        span = self._by_sandbox.get(event.sandbox_name)
        if span is None:
            return
        span.admitted_s = event.time_s
        span.queue_wait_s = event.queue_wait_s

    def _on_sandbox_rejected(self, event: SandboxRejected) -> None:
        span = self._by_sandbox.get(event.sandbox_name)
        if span is None:
            return
        span.rejected = True
        span.end_reason = event.reason

    def _on_sandbox_terminated(self, event: SandboxTerminated) -> None:
        span = self._by_sandbox.get(event.sandbox_name)
        if span is None or span.end_s is not None:
            return
        span.end_s = event.time_s
        if not span.end_reason:
            span.end_reason = event.reason or "terminated"

    # ------------------------------------------------------------------
    # Finalisation and queries
    # ------------------------------------------------------------------

    def finalize(self, horizon_s: float) -> None:
        """Censor every span still open when the run's horizon ended."""
        if self._finalized:
            return
        self._finalized = True
        for span in self.spans:
            if span.end_s is None:
                span.outcome = CENSORED
                end_s = max(horizon_s, span.arrival_s)
                if span.exec_start_s is not None:
                    end_s = max(end_s, span.exec_start_s)
                span.end_s = end_s
        for sandbox in self.sandbox_spans:
            if sandbox.end_s is None:
                sandbox.end_s = max(horizon_s, sandbox.cold_start_s)
                sandbox.end_reason = sandbox.end_reason or "alive_at_horizon"

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_jsonl(self, path: str) -> None:
        """One span per line: request spans first, then sandbox spans."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({"kind": "request", **span.to_dict()}) + "\n")
            for sandbox in self.sandbox_spans:
                handle.write(json.dumps({"kind": "sandbox", **sandbox.to_dict()}) + "\n")

    def _pids(self) -> Dict[str, int]:
        """Stable function -> trace pid mapping (first-seen order, 1-based)."""
        pids: Dict[str, int] = {}
        for span in self.spans:
            pids.setdefault(span.function, len(pids) + 1)
        for sandbox in self.sandbox_spans:
            pids.setdefault(sandbox.function, len(pids) + 1)
        return pids

    def chrome_trace(self, counters: Optional[Iterable[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
        """The run as a Chrome ``trace_event`` array (Perfetto-loadable).

        ``counters`` optionally appends pre-built counter (``ph == "C"``)
        events -- the telemetry layer passes its sampled series through here
        so queue depth and live cost plot under the request lanes.
        """
        events: List[Dict[str, Any]] = []
        pids = self._pids()
        for function, pid in pids.items():
            events.append({
                "name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
                "args": {"name": f"function {function}" if function else "function"},
            })
        flow_seq = 0
        for span in self.spans:
            if span.end_s is None:
                continue  # unfinalised open span; finalize() prevents this
            pid = pids[span.function]
            tid = _trailing_int(span.request_id)
            args = {
                "request_id": span.request_id, "attempt": span.attempt,
                "outcome": span.outcome, "sandbox": span.sandbox_name,
                "cold_start": span.cold_start, "retry_wait_s": span.retry_wait_s,
            }
            if span.parent_id:
                args["parent_id"] = span.parent_id
            if span.fail_reason:
                args["fail_reason"] = span.fail_reason
            events.append({
                "name": f"request (attempt {span.attempt}, {span.outcome})",
                "cat": "request", "ph": "X",
                "ts": span.arrival_s * 1e6,
                "dur": max(span.end_s - span.arrival_s, 0.0) * 1e6,
                "pid": pid, "tid": tid, "args": args,
            })
            if span.exec_start_s is not None and span.end_s >= span.exec_start_s:
                events.append({
                    "name": "execute", "cat": "request", "ph": "X",
                    "ts": span.exec_start_s * 1e6,
                    "dur": (span.end_s - span.exec_start_s) * 1e6,
                    "pid": pid, "tid": tid,
                    "args": {"request_id": span.request_id, "sandbox": span.sandbox_name},
                })
            if span.parent_id and span.parent_id in self._by_request:
                parent = self._by_request[span.parent_id]
                if parent.end_s is not None:
                    flow_seq += 1
                    parent_pid = pids[parent.function]
                    parent_tid = _trailing_int(parent.request_id)
                    events.append({
                        "name": "retry", "cat": "retry", "ph": "s", "id": flow_seq,
                        "ts": parent.end_s * 1e6, "pid": parent_pid, "tid": parent_tid,
                    })
                    events.append({
                        "name": "retry", "cat": "retry", "ph": "f", "bp": "e", "id": flow_seq,
                        "ts": span.arrival_s * 1e6, "pid": pid, "tid": tid,
                    })
        for sandbox in self.sandbox_spans:
            if sandbox.end_s is None:
                continue
            pid = pids[sandbox.function]
            tid = _SANDBOX_TID_BASE + _trailing_int(sandbox.sandbox_name)
            state = "rejected" if sandbox.rejected else (sandbox.end_reason or "sandbox")
            events.append({
                "name": f"sandbox ({state})", "cat": "sandbox", "ph": "X",
                "ts": sandbox.cold_start_s * 1e6,
                "dur": max(sandbox.end_s - sandbox.cold_start_s, 0.0) * 1e6,
                "pid": pid, "tid": tid,
                "args": sandbox.to_dict(),
            })
        if counters is not None:
            events.extend(counters)
        return events

    def to_chrome_trace(self, path: str, counters: Optional[Iterable[Dict[str, Any]]] = None) -> None:
        """JSON Object Format (``{"traceEvents": [...]}``) -- the
        self-describing variant both ``chrome://tracing`` and Perfetto load."""
        payload = {"traceEvents": self.chrome_trace(counters), "displayTimeUnit": "ms"}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def validate_chrome_trace(events: Iterable[Dict[str, Any]]) -> int:
    """Assert Chrome-trace well-formedness; returns the event count.

    Every event must carry ``ph``/``ts``/``pid``/``tid``; complete (``X``)
    events must have a non-negative ``dur``.  Shared by the test suite and
    the CI smoke step so both validate the same contract.
    """
    count = 0
    for event in events:
        count += 1
        for key in ("ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"trace event missing {key!r}: {event!r}")
        if not isinstance(event["ts"], (int, float)):
            raise ValueError(f"trace event ts must be numeric: {event!r}")
        if event["ph"] == "X":
            if "dur" not in event or float(event["dur"]) < 0:
                raise ValueError(f"complete event needs non-negative dur: {event!r}")
    return count
