"""Unit tests for platform components: serving, keep-alive, concurrency, autoscaler, sandbox."""

import numpy as np
import pytest

from repro.platform.autoscaler import Autoscaler, AutoscalerConfig
from repro.platform.concurrency import ConcurrencyModel, ContentionModel
from repro.platform.keepalive import KeepAlivePolicy, KeepAliveResourceBehavior
from repro.platform.metrics import Attempt
from repro.platform.sandbox import ActiveRequest, Sandbox, SandboxState
from repro.platform.serving import ServingArchitecture, ServingOverheadModel


class TestServingOverhead:
    def test_http_server_has_highest_base_overhead(self):
        """Figure 8 / I7: HTTP server > API polling > code execution."""
        http = ServingOverheadModel.http_server().base_overhead_s
        polling = ServingOverheadModel.api_polling().base_overhead_s
        code = ServingOverheadModel.code_execution().base_overhead_s
        assert http > polling > code

    def test_http_overhead_grows_at_small_allocations(self):
        model = ServingOverheadModel.http_server()
        assert model.mean_overhead_s(0.08) > model.mean_overhead_s(1.0)

    def test_api_polling_roughly_stable(self):
        model = ServingOverheadModel.api_polling()
        assert model.mean_overhead_s(0.072) < 2.5 * model.mean_overhead_s(1.0)

    def test_above_one_vcpu_no_scaling(self):
        model = ServingOverheadModel.http_server()
        assert model.mean_overhead_s(2.0) == pytest.approx(model.base_overhead_s)

    def test_sample_positive_and_near_mean(self):
        model = ServingOverheadModel.http_server()
        rng = np.random.default_rng(0)
        sample = model.sampler(1.0, rng)
        samples = [sample() for _ in range(500)]
        assert all(s > 0 for s in samples)
        assert np.mean(samples) == pytest.approx(model.mean_overhead_s(1.0), rel=0.15)

    def test_invalid_allocation_rejected(self):
        with pytest.raises(ValueError):
            ServingOverheadModel.api_polling().mean_overhead_s(0.0)

    def test_architecture_enum_values(self):
        assert ServingArchitecture.API_POLLING.value == "api_polling"
        assert ServingOverheadModel.code_execution().architecture is ServingArchitecture.CODE_EXECUTION


class TestKeepAlivePolicy:
    def _policy(self, **overrides):
        defaults = dict(
            min_keep_alive_s=300.0,
            max_keep_alive_s=360.0,
            resource_behavior=KeepAliveResourceBehavior.FREEZE_DEALLOCATE,
        )
        defaults.update(overrides)
        return KeepAlivePolicy(**defaults)

    def test_cold_probability_zero_below_min(self):
        assert self._policy().cold_start_probability(200.0) == 0.0

    def test_cold_probability_one_above_max(self):
        assert self._policy().cold_start_probability(400.0) == 1.0

    def test_cold_probability_ramps_in_window(self):
        probability = self._policy().cold_start_probability(330.0)
        assert 0.0 < probability < 1.0

    def test_scale_out_extends_keep_alive(self):
        """§3.3: Azure keeps scaled-out functions alive longer (~740 s at 3 instances)."""
        policy = self._policy(
            min_keep_alive_s=120.0, max_keep_alive_s=360.0, scale_out_extension_s=380.0
        )
        assert policy.cold_start_probability(500.0, scaled_out_instances=1) == 1.0
        assert policy.cold_start_probability(500.0, scaled_out_instances=3) < 1.0

    def test_sample_within_window(self):
        policy = self._policy()
        rng = np.random.default_rng(1)
        for _ in range(50):
            value = policy.sample_keep_alive_s(rng)
            assert 300.0 <= value <= 360.0

    def test_idle_resources_freeze_deallocates(self):
        assert self._policy().idle_resources(1.0, 2.0) == (0.0, 0.0)

    def test_idle_resources_gcp_scale_down(self):
        policy = self._policy(
            resource_behavior=KeepAliveResourceBehavior.SCALE_DOWN_CPU, keep_alive_cpu_vcpus=0.01
        )
        cpu, memory = policy.idle_resources(1.0, 2.0)
        assert cpu == pytest.approx(0.01)
        assert memory == pytest.approx(2.0)

    def test_idle_resources_azure_full_allocation(self):
        policy = self._policy(
            resource_behavior=KeepAliveResourceBehavior.FULL_ALLOCATION, keep_alive_memory_fraction=1.0
        )
        assert policy.idle_resources(1.0, 2.0) == (1.0, 2.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            self._policy(min_keep_alive_s=400.0, max_keep_alive_s=300.0)

    def test_negative_idle_rejected(self):
        with pytest.raises(ValueError):
            self._policy().cold_start_probability(-1.0)

    def test_describe_row(self):
        row = self._policy().describe()
        assert row["resource_behavior"] == "freeze_deallocate"
        assert row["min_keep_alive_s"] == 300.0


class TestConcurrencyAndContention:
    def test_single_model(self):
        model = ConcurrencyModel.single()
        assert model.is_single
        assert model.effective_workers == 1

    def test_multi_model_with_worker_pool(self):
        model = ConcurrencyModel.multi(80, runtime_workers=8)
        assert model.max_concurrency == 80
        assert model.effective_workers == 8

    def test_workers_capped_by_concurrency(self):
        model = ConcurrencyModel.multi(4, runtime_workers=16)
        assert model.effective_workers == 4

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ConcurrencyModel(max_concurrency=0)
        with pytest.raises(ValueError):
            ConcurrencyModel(max_concurrency=4, runtime_workers=0)

    def test_contention_single_request_full_speed(self):
        contention = ContentionModel()
        assert contention.per_request_rate(1, 1.0) == pytest.approx(1.0)
        assert contention.slowdown(1, 1.0) == pytest.approx(1.0)

    def test_two_cpu_bound_requests_double_duration(self):
        """§3.1: two 1-second requests on one vCPU take at least 2 s each."""
        contention = ContentionModel(overhead_per_peer=0.0)
        assert contention.slowdown(2, 1.0) == pytest.approx(2.0)

    def test_context_switch_overhead_makes_it_worse(self):
        """§3.1: real slowdowns are worse than the ideal share due to context switches."""
        assert ContentionModel(overhead_per_peer=0.05).slowdown(2, 1.0) > 2.0

    def test_rate_capped_at_one_core_per_request(self):
        contention = ContentionModel(overhead_per_peer=0.0)
        assert contention.per_request_rate(2, 4.0) == pytest.approx(1.0)

    def test_efficiency_floor(self):
        contention = ContentionModel(overhead_per_peer=1.0, min_efficiency=0.5)
        assert contention.efficiency(100) == pytest.approx(0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ContentionModel().per_request_rate(0, 1.0)
        with pytest.raises(ValueError):
            ContentionModel().per_request_rate(1, 0.0)


class TestAutoscaler:
    def _autoscaler(self, **overrides):
        defaults = dict(metric_window_s=60.0, evaluation_interval_s=2.0)
        defaults.update(overrides)
        return Autoscaler(AutoscalerConfig(**defaults), max_concurrency=80, alloc_vcpus=1.0)

    def test_no_samples_keeps_current(self):
        scaler = self._autoscaler()
        assert scaler.desired_instances(0.0, 3) == 3

    def test_cpu_pressure_scales_up(self):
        scaler = self._autoscaler()
        for t in range(0, 30, 2):
            scaler.observe(float(t), active_requests=4, busy_vcpus=2.0, instances=1)
        assert scaler.desired_instances(30.0, 1) > 1

    def test_panic_mode_reacts_to_spikes(self):
        scaler = self._autoscaler()
        for t in range(0, 12, 2):
            scaler.observe(float(t), active_requests=300, busy_vcpus=1.0, instances=1)
        desired = scaler.desired_instances(12.0, 1)
        assert desired >= 5

    def test_scale_down_delayed(self):
        config = AutoscalerConfig(scale_down_delay_s=60.0)
        scaler = Autoscaler(config, max_concurrency=80, alloc_vcpus=1.0)
        for t in range(0, 20, 2):
            scaler.observe(float(t), active_requests=0, busy_vcpus=0.0, instances=5)
        # The desire to shrink exists but is held back by the delay.
        assert scaler.desired_instances(20.0, 5) == 5

    def test_max_instances_cap(self):
        scaler = self._autoscaler(max_instances=3)
        for t in range(0, 12, 2):
            scaler.observe(float(t), active_requests=10_000, busy_vcpus=100.0, instances=1)
        assert scaler.desired_instances(12.0, 1) <= 3

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(target_cpu_utilization=0.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(metric_window_s=0.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_instances=5, max_instances=2)


class TestAutoscalerScaleDownHysteresis:
    """Scale-in is damped: it fires only after the delay persists, and demand resets it."""

    def _idle_scaler(self, delay_s=60.0):
        scaler = Autoscaler(
            AutoscalerConfig(scale_down_delay_s=delay_s, metric_window_s=60.0),
            max_concurrency=80,
            alloc_vcpus=1.0,
        )
        return scaler

    def test_scale_down_fires_after_delay(self):
        scaler = self._idle_scaler(delay_s=60.0)
        for t in range(0, 120, 2):
            scaler.observe(float(t), active_requests=0, busy_vcpus=0.0, instances=5)
            desired = scaler.desired_instances(float(t), 5)
            if t < 60.0:
                assert desired == 5, f"scaled down too early at t={t}"
        # Past the delay the shrink goes through (to min_instances = 0).
        assert scaler.desired_instances(120.0, 5) < 5

    def test_demand_resets_the_scale_down_clock(self):
        scaler = Autoscaler(
            AutoscalerConfig(scale_down_delay_s=20.0, metric_window_s=10.0),
            max_concurrency=80,
            alloc_vcpus=1.0,
        )
        # Idle phase: the shrink candidate starts its clock (~t=2).
        for t in range(0, 10, 2):
            scaler.observe(float(t), active_requests=0, busy_vcpus=0.0, instances=5)
            assert scaler.desired_instances(float(t), 5) == 5
        # A demand burst cancels the pending shrink.
        for t in range(10, 16, 2):
            scaler.observe(float(t), active_requests=2000, busy_vcpus=5.0, instances=5)
            assert scaler.desired_instances(float(t), 5) >= 5
        # Renewed idleness must wait the full delay again: at t=30 more than
        # delay_s has passed since the *first* candidate (t~2), so without the
        # reset the scaler would already have shrunk.
        for t in range(16, 32, 2):
            scaler.observe(float(t), active_requests=0, busy_vcpus=0.0, instances=5)
            scaler.desired_instances(float(t), 5)
        scaler.observe(32.0, active_requests=0, busy_vcpus=0.0, instances=5)
        assert scaler.desired_instances(32.0, 5) == 5
        # Once the new clock runs out, the shrink finally goes through.
        for t in range(34, 50, 2):
            scaler.observe(float(t), active_requests=0, busy_vcpus=0.0, instances=5)
            scaler.desired_instances(float(t), 5)
        assert scaler.desired_instances(50.0, 5) < 5

    def test_scale_down_bounded_by_min_instances(self):
        scaler = Autoscaler(
            AutoscalerConfig(scale_down_delay_s=10.0, min_instances=2),
            max_concurrency=80,
            alloc_vcpus=1.0,
        )
        for t in range(0, 40, 2):
            scaler.observe(float(t), active_requests=0, busy_vcpus=0.0, instances=5)
            scaler.desired_instances(float(t), 5)
        assert scaler.desired_instances(40.0, 5) == 2


class TestAutoscalerProcess:
    def test_polled_ticks_on_fixed_grid(self):
        from repro.platform.autoscaler import AutoscalerProcess
        from repro.sim.kernel import SimulationKernel

        ticks = []
        process = AutoscalerProcess(2.0, ticks.append)
        kernel = SimulationKernel()
        kernel.add_process(process)
        kernel.run(until=10.0)
        assert ticks == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_heap_events_win_exact_time_ties(self):
        """Arrivals scheduled at a tick time run before the autoscaler evaluates."""
        from repro.platform.autoscaler import AutoscalerProcess
        from repro.sim.kernel import SimulationKernel

        order = []
        kernel = SimulationKernel()
        kernel.on("arrival", lambda event: order.append("arrival"))
        kernel.add_process(AutoscalerProcess(2.0, lambda now: order.append("autoscale")))
        kernel.schedule(0.0, "arrival")
        kernel.schedule(2.0, "arrival")
        kernel.run(until=2.0)
        assert order == ["arrival", "autoscale", "arrival", "autoscale"]

    def test_invalid_interval_rejected(self):
        from repro.platform.autoscaler import AutoscalerProcess

        with pytest.raises(ValueError):
            AutoscalerProcess(0.0, lambda now: None)


class TestSandbox:
    def _sandbox(self, workers=2, vcpus=1.0):
        return Sandbox(
            function_name="f",
            alloc_vcpus=vcpus,
            alloc_memory_gb=1.0,
            contention=ContentionModel(overhead_per_peer=0.0),
            created_s=0.0,
            init_duration_s=1.0,
            runtime_workers=workers,
        )

    def _request(self, request_id, cpu=0.1, io=0.0):
        return ActiveRequest(
            attempt=Attempt(request_id, arrival_s=0.0, origin_s=0.0),
            remaining_cpu_s=cpu,
            io_remaining_s=io,
            overhead_s=0.0,
            cold_start=False,
        )

    def test_lifecycle_initializing_to_idle(self):
        sandbox = self._sandbox()
        assert sandbox.state is SandboxState.INITIALIZING
        sandbox.mark_ready(1.0)
        assert sandbox.state is SandboxState.IDLE

    def test_admit_starts_executing_up_to_workers(self):
        sandbox = self._sandbox(workers=1)
        sandbox.mark_ready(1.0)
        sandbox.admit(self._request("a"), 1.0)
        sandbox.admit(self._request("b"), 1.0)
        assert len(sandbox.executing) == 1
        assert len(sandbox.waiting) == 1
        assert sandbox.concurrency == 2

    def test_processor_sharing_halves_progress(self):
        sandbox = self._sandbox(workers=2, vcpus=1.0)
        sandbox.mark_ready(0.0)
        sandbox.admit(self._request("a", cpu=0.1), 0.0)
        sandbox.admit(self._request("b", cpu=0.1), 0.0)
        sandbox.advance(0.1)
        # Two requests share one vCPU: each got 0.05 s of CPU in 0.1 s.
        assert sandbox.executing["a"].remaining_cpu_s == pytest.approx(0.05)

    def test_completion_and_promotion(self):
        sandbox = self._sandbox(workers=1)
        sandbox.mark_ready(0.0)
        sandbox.admit(self._request("a", cpu=0.1), 0.0)
        sandbox.admit(self._request("b", cpu=0.1), 0.0)
        done = sandbox.advance(0.1)
        assert [r.attempt.request_id for r in done] == ["a"]
        sandbox.remove("a", 0.1)
        assert "b" in sandbox.executing
        assert sandbox.executing["b"].exec_start_s == pytest.approx(0.1)
        # Promotion moves a request from waiting to executing: still admitted.
        assert sandbox.concurrency == 1

    def test_idle_after_all_requests_leave(self):
        sandbox = self._sandbox()
        sandbox.mark_ready(0.0)
        sandbox.admit(self._request("a", cpu=0.05), 0.0)
        sandbox.advance(0.05)
        sandbox.remove("a", 0.05)
        assert sandbox.state is SandboxState.IDLE
        assert sandbox.last_busy_s == 0.05

    def test_next_completion_time(self):
        sandbox = self._sandbox()
        sandbox.mark_ready(0.0)
        sandbox.admit(self._request("a", cpu=0.1, io=0.05), 0.0)
        assert sandbox.next_completion_time(0.0) == pytest.approx(0.15)

    def test_terminate_with_active_requests_rejected(self):
        sandbox = self._sandbox()
        sandbox.mark_ready(0.0)
        sandbox.admit(self._request("a"), 0.0)
        with pytest.raises(RuntimeError):
            sandbox.terminate(1.0)

    def test_terminate_idle(self):
        sandbox = self._sandbox()
        sandbox.mark_ready(0.0)
        sandbox.terminate(1.0)
        assert sandbox.state is SandboxState.TERMINATED
