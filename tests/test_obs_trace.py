"""Trace integrity: spans account for every arrival, across any seeded run.

The acceptance contract of the observability PR: on a traced run with
retries on, the span census must match the domain metrics exactly --
``total == arrivals``, ``roots == arrivals - retry_arrivals``, outcomes
partition into completed / failed / denied / censored, every retry child
links to a failed parent attempt, and timestamps are monotone within each
span.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.obs import Observability, validate_chrome_trace
from repro.obs.trace import CENSORED, COMPLETED, DENIED, FAILED
from repro.platform.presets import get_platform_preset
from repro.sim.retry import RetryPolicy
from repro.tenancy import TenantConfig
from repro.workloads.functions import PYAES_FUNCTION


def _traced_cluster(seed, *, retry=None, feedback="on", max_hosts=1, rps=6.0,
                    duration_s=6.0, num_functions=2, queue_depth=0,
                    platform="aws_lambda_like", tenants=None):
    """A small, saturated cluster run with an Observability attached."""
    preset = get_platform_preset(platform)
    deployments = []
    for index in range(num_functions):
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5),
            name=f"fn-{index:02d}",
        )
        deployments.append(
            FunctionDeployment(function=function, platform=preset, rps=rps, duration_s=duration_s)
        )
    obs = Observability()
    simulator = ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=1.0, memory_gb=2.0),
            max_hosts=max_hosts,
            queue_depth=queue_depth,
            sample_interval_s=2.0,
        ),
        billing_platform="aws_lambda",
        seed=seed,
        feedback=feedback,
        retry=retry,
        obs=obs,
        tenants=tenants,
    )
    return simulator.run(), obs


class TestTraceIntegrity:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        retry=st.sampled_from([None, RetryPolicy(max_attempts=3)]),
    )
    def test_spans_account_for_every_arrival(self, seed, retry):
        result, obs = _traced_cluster(seed, retry=retry)
        metrics = list(result.metrics.values())
        arrivals = sum(m.arrivals for m in metrics)
        retry_arrivals = sum(m.retry_arrivals for m in metrics)
        completed = sum(m.num_requests for m in metrics)
        failed = sum(m.failed_requests for m in metrics)

        spans = obs.trace.spans
        # Every arrival opened exactly one span; no span without an arrival.
        assert len(spans) == arrivals
        assert sum(1 for s in spans if s.is_root) == arrivals - retry_arrivals
        # Every span closed by the horizon or was censored at it: the outcome
        # census partitions into the domain metrics' conservation law.
        by_outcome = {}
        for span in spans:
            by_outcome[span.outcome] = by_outcome.get(span.outcome, 0) + 1
        assert by_outcome.get(COMPLETED, 0) == completed
        assert by_outcome.get(FAILED, 0) == failed
        assert by_outcome.get(CENSORED, 0) == arrivals - completed - failed
        assert set(by_outcome) <= {COMPLETED, FAILED, CENSORED}

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_retry_children_link_to_failed_parent_attempts(self, seed):
        _, obs = _traced_cluster(seed, retry=RetryPolicy(max_attempts=4))
        spans = obs.trace.spans
        by_request = {}
        for span in spans:
            by_request.setdefault(span.request_id, []).append(span)
        for span in spans:
            if span.is_root:
                assert span.parent_id == ""
                assert span.attempt == 1
                continue
            parents = by_request.get(span.parent_id, [])
            # The parent attempt exists, failed, and is one attempt behind.
            assert any(
                p.attempt == span.attempt - 1 and p.outcome == FAILED for p in parents
            ), f"no failed parent for {span.request_id} attempt {span.attempt}"

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        retry=st.sampled_from([None, RetryPolicy(max_attempts=3)]),
    )
    def test_timestamps_monotone_within_each_span(self, seed, retry):
        _, obs = _traced_cluster(seed, retry=retry)
        for span in obs.trace.spans:
            assert span.end_s is not None  # finalize() closed or censored it
            assert span.arrival_s <= span.end_s
            if span.exec_start_s is not None:
                assert span.arrival_s <= span.exec_start_s <= span.end_s


class TestChromeExport:
    def test_chrome_trace_is_well_formed(self, tmp_path):
        _, obs = _traced_cluster(11, retry=RetryPolicy(max_attempts=3))
        path = tmp_path / "trace.json"
        obs.write_trace(str(path))
        with open(path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert validate_chrome_trace(events) == len(events)
        # Retry re-injections draw flow arrows: balanced start/finish pairs.
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        # Telemetry counters ride along in the same document.
        assert any(e["ph"] == "C" for e in events)

    def test_jsonl_export_round_trips_span_count(self, tmp_path):
        _, obs = _traced_cluster(11, retry=RetryPolicy(max_attempts=3))
        path = tmp_path / "spans.jsonl"
        obs.write_trace(str(path))
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        requests = [line for line in lines if line["kind"] == "request"]
        sandboxes = [line for line in lines if line["kind"] == "sandbox"]
        assert len(requests) == len(obs.trace.spans)
        assert len(sandboxes) == len(obs.trace.sandbox_spans)


class TestObservabilityLifecycle:
    def test_attach_refuses_reuse(self):
        _, obs = _traced_cluster(3)
        try:
            obs.attach(None, None)
        except RuntimeError as error:
            assert "one run" in str(error)
        else:
            raise AssertionError("attach() must refuse a second run")

    def test_summary_census_matches_spans(self):
        result, obs = _traced_cluster(5, retry=RetryPolicy(max_attempts=3))
        census = obs.summary()["spans"]
        metrics = list(result.metrics.values())
        assert census["total"] == sum(m.arrivals for m in metrics)
        assert census["completed"] == sum(m.num_requests for m in metrics)
        assert census["failed"] == sum(m.failed_requests for m in metrics)


class TestDeniedSpans:
    def test_credit_denials_close_as_denied_spans(self):
        tenants = [
            TenantConfig("tenant-00", credit_capacity=5.0, credit_refill_per_s=2.0,
                         on_exhausted="deny")
        ]
        result, obs = _traced_cluster(
            3, platform="gcp_run_like", rps=20.0, duration_s=10.0, max_hosts=8,
            tenants=tenants,
        )
        denied = sum(m.denied_requests for m in result.metrics.values())
        assert denied > 0
        spans = [s for s in obs.trace.spans if s.outcome == DENIED]
        assert len(spans) == denied
        assert all(s.end_s == s.arrival_s for s in spans)
        assert all(s.fail_reason == "credits" for s in spans)
        assert not any(s.outcome == CENSORED for s in obs.trace.spans)
        assert obs.summary()["spans"]["denied"] == denied
