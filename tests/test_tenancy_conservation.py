"""Per-tenant conservation laws over the multi-tenant admission layer.

The tenancy layer adds two new places a request can live -- terminally denied
by credit metering, or parked in a tenant's credit queue -- so the arrival
conservation law of ``tests/test_conservation.py`` gains a term: per tenant,

    arrivals == completed + failed + denied + pending + in-flight

must hold for **any** configuration (deny or queue exhaustion policy, feedback
on or off, retries on or off, refillable or starved credit buckets).  And because tenants partition the deployments, the
per-tenant reports must sum exactly to the global totals the pre-tenancy law
pins -- tenancy re-buckets the accounting, it must never change it.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.platform.presets import get_platform_preset
from repro.sim.retry import RetryPolicy
from repro.tenancy import TenantConfig
from repro.tenancy.admission import REQUEST_COST
from repro.workloads.functions import PYAES_FUNCTION

RETRY_POLICY = RetryPolicy(max_attempts=3, base_backoff_s=0.2, jitter=0.1)


def _build_cluster(seed, tenants, *, feedback="off", retry=None, rps=6.0,
                   num_functions=4, max_hosts=1, queue_depth=0):
    preset = get_platform_preset("aws_lambda_like")
    deployments = []
    for index in range(num_functions):
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)
        function = dataclasses.replace(function, name=f"fn-{index:02d}")
        deployments.append(
            FunctionDeployment(function=function, platform=preset, rps=rps, duration_s=5.0)
        )
    return ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=2.0, memory_gb=4.0),
            max_hosts=max_hosts,
            queue_depth=queue_depth,
            sample_interval_s=2.0,
        ),
        billing_platform="aws_lambda",
        seed=seed,
        feedback=feedback,
        retry=retry,
        tenants=tenants,
    )


def _assert_tenant_conservation(simulator, result):
    """Per-tenant closure plus exact agreement with the global totals."""
    report = result.tenancy
    assert report is not None
    # --- per tenant: the extended conservation law ------------------------
    for tenant in report.tenants:
        assert tenant.conserves(), (
            f"{tenant.name}: {tenant.arrivals} arrivals != {tenant.completed} completed + "
            f"{tenant.failed} failed + {tenant.denied} denied + {tenant.pending} pending + "
            f"{tenant.in_flight} in flight"
        )
    # --- per-simulator: the same law holds at function granularity --------
    for name, sim in simulator.simulators.items():
        m = sim.metrics
        accounted = (
            m.num_requests
            + m.failed_requests
            + m.denied_requests
            + sim.pending_request_count
            + sim.in_flight_request_count
        )
        assert m.arrivals == accounted, f"{name} leaks requests"
    # --- tenants partition the cluster: sums match global totals ----------
    totals = {
        "arrivals": sum(m.arrivals for m in result.metrics.values()),
        "completed": sum(m.num_requests for m in result.metrics.values()),
        "failed": sum(m.failed_requests for m in result.metrics.values()),
        "denied": sum(m.denied_requests for m in result.metrics.values()),
        "pending": sum(m.pending_requests for m in result.metrics.values()),
    }
    assert sum(t.arrivals for t in report.tenants) == totals["arrivals"]
    assert sum(t.completed for t in report.tenants) == totals["completed"]
    assert sum(t.failed for t in report.tenants) == totals["failed"]
    assert sum(t.denied for t in report.tenants) == totals["denied"]
    assert sum(t.pending for t in report.tenants) == totals["pending"]
    assert sum(t.functions for t in report.tenants) == len(result.metrics)
    # --- controller counters agree with the metrics-side accounting -------
    admission = simulator.admission
    for tenant in report.tenants:
        assert admission.denied[tenant.name] == tenant.denied
        # Everything the controller admitted was handed to routing; together
        # with denials and still-parked requests that covers every metered
        # arrival (organic + retry re-injections).
        assert (
            admission.admitted[tenant.name]
            + admission.denied[tenant.name]
            + admission.queue_depth(tenant.name)
            == tenant.arrivals
        )
        # Credits were spent exactly once per admitted request.
        assert admission.credits_spent[tenant.name] == (
            admission.admitted[tenant.name] * REQUEST_COST
        )


class TestTenancyConservation:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        on_exhausted=st.sampled_from(["deny", "queue"]),
        feedback=st.sampled_from(["off", "on"]),
        with_retry=st.booleans(),
        capacity=st.sampled_from([5.0, 50.0]),
        refill=st.sampled_from([0.0, 1.5]),
        num_tenants=st.sampled_from([1, 2, 3]),
    )
    def test_any_tenant_config_conserves(
        self, seed, on_exhausted, feedback, with_retry, capacity, refill, num_tenants
    ):
        tenants = [
            TenantConfig(
                f"tenant-{index:02d}",
                credit_capacity=capacity,
                credit_refill_per_s=refill,
                on_exhausted=on_exhausted,
                slo_latency_s=0.5,
            )
            for index in range(num_tenants)
        ]
        simulator = _build_cluster(
            seed, tenants, feedback=feedback,
            retry=RETRY_POLICY if with_retry else None,
        )
        result = simulator.run()
        _assert_tenant_conservation(simulator, result)

    def test_starved_credit_queue_strands_as_pending(self):
        """refill=0 + queue policy: the credit queue never drains, yet conserves."""
        tenants = [TenantConfig("starved", credit_capacity=5.0, credit_refill_per_s=0.0,
                                on_exhausted="queue")]
        simulator = _build_cluster(11, tenants, rps=4.0, num_functions=2)
        result = simulator.run()
        _assert_tenant_conservation(simulator, result)
        report = result.tenancy.by_name("starved")
        assert report.pending > 0           # stranded in the credit queue
        assert report.completed == 5        # one 5-credit bucket across both functions
        assert simulator.admission.resumed["starved"] == 0

    def test_deny_under_retry_amplification_conserves(self):
        """Denials, failures, retries and credit refills interleaving at once."""
        tenants = [
            TenantConfig("a", credit_capacity=10.0, credit_refill_per_s=1.0,
                         on_exhausted="deny", slo_latency_s=0.4),
            TenantConfig("b", credit_capacity=10.0, credit_refill_per_s=1.0,
                         on_exhausted="queue", slo_latency_s=0.4),
        ]
        simulator = _build_cluster(
            77, tenants, feedback="on", retry=RETRY_POLICY, rps=8.0, queue_depth=2
        )
        result = simulator.run()
        _assert_tenant_conservation(simulator, result)
        assert result.tenancy.total_denied > 0

    def test_unmetered_tenants_report_matches_untenanted_run(self):
        """Default (inf-capacity) tenants must not perturb the simulation at all.

        The strongest statement of the gating contract that plain equality can
        make: a run with unmetered tenants produces the *identical* summary to
        the same seed without tenants (modulo the tenancy-only columns), with
        zero denials and every arrival taking the pre-tenancy code path's
        timings.
        """
        baseline = _build_cluster(99, None, feedback="on", retry=RETRY_POLICY).run()
        tenanted = _build_cluster(
            99,
            [TenantConfig("free-a"), TenantConfig("free-b")],
            feedback="on",
            retry=RETRY_POLICY,
        ).run()
        base_row = baseline.summary()
        tenant_row = tenanted.summary()
        tenancy_keys = {
            k for k in tenant_row
            if k.startswith("tenant:")
            or k in ("num_tenants", "credit_denied_requests", "slo_attainment", "jain_fairness")
        }
        assert {k: v for k, v in tenant_row.items() if k not in tenancy_keys} == base_row
        assert tenant_row["credit_denied_requests"] == 0.0
        assert tenant_row["jain_fairness"] == 1.0 or tenant_row["jain_fairness"] > 0.0
