"""The one-pass processor-sharing step against the two-pass loop it replaced, bit for bit.

:meth:`Sandbox.advance` advances every executing request and reports the
done ones in a single pass.  The oracle below is the earlier implementation,
kept verbatim: an ``advance`` that only steps progress, a separate
``completed_requests`` scan and the projection loop, all spelled with the
``min``/``max`` builtins.  Hypothesis drives both through the same
admit/advance/remove sequences and every remaining-work float, the done list
and its order, and the next projection must agree exactly (compared as
``float.hex``, so ``-0.0`` and NaN payloads count).
"""

from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.concurrency import ContentionModel
from repro.platform.metrics import Attempt
from repro.platform.sandbox import ActiveRequest, Sandbox, SandboxState

_WORK_DONE_S = 1e-12
_CLOCK_SKEW_S = 1e-9


# ----------------------------------------------------------------------
# The oracle: the two-pass processor-sharing loop, verbatim
# ----------------------------------------------------------------------


def oracle_per_request_rate(self) -> float:
    n = len(self.executing)
    if n != self._rate_count:
        self._rate_count = n
        self._contended_rate = self.contention.per_request_rate(n, self.alloc_vcpus)
    return self._contended_rate


def oracle_advance(self, now_s: float) -> None:
    if now_s < self._last_progress_update_s - _CLOCK_SKEW_S:
        raise ValueError("time went backwards in sandbox advance")
    elapsed = max(now_s - self._last_progress_update_s, 0.0)
    self._last_progress_update_s = now_s
    if elapsed <= 0 or not self.executing:
        return
    rate = oracle_per_request_rate(self) * self.rate_factor
    for request in self.executing.values():
        if request.remaining_cpu_s > 0:
            consumed = min(request.remaining_cpu_s, elapsed * rate)
            request.remaining_cpu_s -= consumed
            leftover = elapsed - (consumed / rate if rate > 0 else 0.0)
            if request.remaining_cpu_s <= _WORK_DONE_S and leftover > 0:
                request.io_remaining_s = max(request.io_remaining_s - leftover, 0.0)
        else:
            request.io_remaining_s = max(request.io_remaining_s - elapsed, 0.0)


def oracle_admit(self, request: ActiveRequest, now_s: float) -> None:
    oracle_advance(self, now_s)
    if len(self.executing) < self.runtime_workers:
        request.exec_start_s = now_s
        self.executing[request.attempt.request_id] = request
    else:
        self.waiting.append(request)
    self.concurrency += 1
    self.state = SandboxState.BUSY
    self.keep_alive_deadline_s = float("inf")


def oracle_completed_requests(self) -> Dict[str, ActiveRequest]:
    return {
        rid: req
        for rid, req in self.executing.items()
        if req.remaining_cpu_s <= _WORK_DONE_S and req.io_remaining_s <= _WORK_DONE_S
    }


def oracle_next_completion_time(self, now_s: float) -> Optional[float]:
    if not self.executing:
        return None
    rate = oracle_per_request_rate(self) * self.rate_factor
    best: Optional[float] = None
    for request in self.executing.values():
        if request.remaining_cpu_s > _WORK_DONE_S:
            if rate <= 0:
                continue
            t = now_s + request.remaining_cpu_s / rate + request.io_remaining_s
        else:
            t = now_s + request.io_remaining_s
        if best is None or t < best:
            best = t
    return best


# ----------------------------------------------------------------------
# Driving both through one sequence
# ----------------------------------------------------------------------


def _sandbox(workers: int, vcpus: float, t0: float) -> Sandbox:
    sandbox = Sandbox(
        function_name="f",
        alloc_vcpus=vcpus,
        alloc_memory_gb=1.0,
        contention=ContentionModel(),
        created_s=0.0,
        init_duration_s=0.0,
        runtime_workers=workers,
        name="sb",
    )
    sandbox.mark_ready(t0)
    return sandbox


def _request(index: int, cpu: float, io: float) -> ActiveRequest:
    return ActiveRequest(
        attempt=Attempt(f"r{index:04d}", arrival_s=0.0, origin_s=0.0),
        remaining_cpu_s=cpu,
        io_remaining_s=io,
        overhead_s=0.0,
        cold_start=False,
    )


def _state(sandbox: Sandbox):
    def bits(request: ActiveRequest):
        return (
            request.attempt.request_id,
            request.remaining_cpu_s.hex(),
            request.io_remaining_s.hex(),
            request.exec_start_s,
        )

    return (
        [bits(r) for r in sandbox.executing.values()],
        [bits(r) for r in sandbox.waiting],
        sandbox.concurrency,
        sandbox._last_progress_update_s.hex(),
    )


def _hex(value: Optional[float]) -> Optional[str]:
    return None if value is None else value.hex()


#: Work amounts around the interesting edges: zero-CPU requests, residuals
#: at and just above the done tolerance, and ordinary service demands.
_WORK = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-13, 1e-12, 1.5e-12, 2e-12, 1e-9]),
    st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
)
_STEP = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-13, 1e-12, 1e-9]),
    st.floats(min_value=1e-6, max_value=1.5, allow_nan=False),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), _STEP, _WORK, _WORK),
        st.tuples(st.just("advance"), _STEP),
        st.tuples(st.just("complete"), _STEP),
        st.tuples(st.just("rate"), st.sampled_from([1.0, 0.5, 0.25, 0.05, 0.9999])),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    workers=st.sampled_from([1, 2, 8]),
    vcpus=st.sampled_from([0.5, 1.0, 2.0]),
    t0=st.sampled_from([0.0, 1.0, 3600.0, 2.0**14, 2.0**20, 2.0**30]),
    ops=_OPS,
)
def test_one_pass_advance_matches_two_pass_oracle(workers, vcpus, t0, ops):
    new = _sandbox(workers, vcpus, t0)
    old = _sandbox(workers, vcpus, t0)
    now = t0
    admitted = 0
    for op in ops:
        kind = op[0]
        if kind == "rate":
            new.rate_factor = old.rate_factor = op[1]
            continue
        now += op[1]
        if kind == "admit":
            new.admit(_request(admitted, op[2], op[3]), now)
            oracle_admit(old, _request(admitted, op[2], op[3]), now)
            admitted += 1
        else:
            done = new.advance(now)
            oracle_advance(old, now)
            expected = oracle_completed_requests(old)
            assert [r.attempt.request_id for r in done] == list(expected)
            if kind == "complete":
                for request in done:
                    new.remove(request.attempt.request_id, now)
                for request_id in expected:
                    old.remove(request_id, now)
        assert _state(new) == _state(old)
        assert _hex(new.next_completion_time(now)) == _hex(oracle_next_completion_time(old, now))
        assert _state(new) == _state(old)


def test_zero_elapsed_advance_still_reports_done_requests():
    sandbox = _sandbox(workers=2, vcpus=1.0, t0=5.0)
    sandbox.admit(_request(0, 0.0, 0.0), 5.0)
    sandbox.admit(_request(1, 0.5, 0.0), 5.0)
    assert [r.attempt.request_id for r in sandbox.advance(5.0)] == ["r0000"]
