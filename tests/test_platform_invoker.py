"""Integration-level tests of the platform simulator (presets + invoker)."""

import pytest

from repro.platform.config import FunctionConfig, PlatformConfig
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import PLATFORM_PRESETS, get_platform_preset
from repro.platform.serving import ServingArchitecture
from repro.workloads.functions import MINIMAL_FUNCTION, PYAES_FUNCTION
from repro.workloads.traffic import constant_rate_arrivals, idle_gap_probe_arrivals


class TestPresets:
    def test_all_expected_presets_exist(self):
        assert set(PLATFORM_PRESETS) == {
            "aws_lambda_like",
            "gcp_run_like",
            "azure_consumption_like",
            "ibm_code_engine_like",
            "cloudflare_workers_like",
        }

    def test_unknown_preset_raises_helpful_error(self):
        with pytest.raises(KeyError):
            get_platform_preset("openwhisk_like")

    def test_aws_single_concurrency_api_polling(self):
        preset = get_platform_preset("aws_lambda_like")
        assert preset.concurrency.is_single
        assert preset.architecture is ServingArchitecture.API_POLLING

    def test_gcp_multi_concurrency_default_80(self):
        preset = get_platform_preset("gcp_run_like")
        assert preset.concurrency.max_concurrency == 80
        assert preset.architecture is ServingArchitecture.HTTP_SERVER
        assert preset.autoscaler is not None
        assert preset.autoscaler.target_cpu_utilization == pytest.approx(0.6)

    def test_ibm_knative_default_concurrency_100(self):
        assert get_platform_preset("ibm_code_engine_like").concurrency.max_concurrency == 100

    def test_cloudflare_code_execution(self):
        assert get_platform_preset("cloudflare_workers_like").architecture is ServingArchitecture.CODE_EXECUTION

    def test_function_config_validation(self):
        with pytest.raises(ValueError):
            FunctionConfig(name="f", alloc_vcpus=0.0, alloc_memory_gb=1.0, cpu_time_s=0.1)
        with pytest.raises(ValueError):
            FunctionConfig(name="f", alloc_vcpus=1.0, alloc_memory_gb=1.0, cpu_time_s=-0.1)

    def test_platform_config_validation(self):
        preset = get_platform_preset("aws_lambda_like")
        with pytest.raises(ValueError):
            PlatformConfig(
                name="bad",
                concurrency=preset.concurrency,
                serving=preset.serving,
                keep_alive=preset.keep_alive,
                placement_delay_s=-1.0,
            )


class TestSingleConcurrencySimulation:
    @pytest.fixture(scope="class")
    def metrics(self):
        preset = get_platform_preset("aws_lambda_like")
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=1.0)
        simulator = PlatformSimulator(preset, function, seed=3)
        return simulator.run(constant_rate_arrivals(10, 30.0))

    def test_all_requests_served(self, metrics):
        assert metrics.num_requests == 300

    def test_durations_stable_under_load(self, metrics):
        """Figure 6: single-concurrency execution duration independent of load."""
        summary = metrics.summary()
        assert summary["p95_execution_duration_s"] <= summary["mean_execution_duration_s"] * 1.2

    def test_execution_close_to_service_time(self, metrics):
        assert metrics.mean_execution_duration_s() == pytest.approx(0.161, rel=0.05)

    def test_cold_starts_only_on_new_sandboxes(self, metrics):
        assert 0 < metrics.cold_starts < metrics.num_requests

    def test_instance_timeline_recorded(self, metrics):
        assert metrics.max_instances() >= 2


class TestMultiConcurrencySimulation:
    def test_contention_raises_mean_duration(self):
        """Figure 6: the multi-concurrency platform slows down at high request rates."""
        preset = get_platform_preset("gcp_run_like")
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=1.5)
        low = PlatformSimulator(preset, function, seed=1).run(constant_rate_arrivals(1, 60.0))
        high = PlatformSimulator(preset, function, seed=1).run(constant_rate_arrivals(20, 60.0))
        assert high.mean_execution_duration_s() > 2.0 * low.mean_execution_duration_s()

    def test_autoscaler_adds_instances_under_load(self):
        preset = get_platform_preset("gcp_run_like")
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=1.5)
        metrics = PlatformSimulator(preset, function, seed=1).run(constant_rate_arrivals(15, 120.0))
        assert metrics.max_instances() >= 3

    def test_duration_timeline_bucketing(self):
        preset = get_platform_preset("gcp_run_like")
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5, init_duration_s=0.5)
        metrics = PlatformSimulator(preset, function, seed=2).run(constant_rate_arrivals(5, 40.0))
        timeline = metrics.duration_timeline(bucket_s=10.0)
        assert len(timeline) >= 3
        assert all("p95_duration_s" in row for row in timeline)

    def test_timeline_rejects_bad_bucket(self):
        preset = get_platform_preset("gcp_run_like")
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5)
        metrics = PlatformSimulator(preset, function, seed=2).run(constant_rate_arrivals(2, 5.0))
        with pytest.raises(ValueError):
            metrics.duration_timeline(bucket_s=0.0)


class TestKeepAliveBehaviour:
    def test_short_idle_gap_stays_warm(self):
        preset = get_platform_preset("aws_lambda_like")
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5, init_duration_s=1.0)
        arrivals = idle_gap_probe_arrivals([60.0] * 5)
        metrics = PlatformSimulator(preset, function, seed=5).run(arrivals)
        outcomes = sorted(metrics.requests, key=lambda r: r.arrival_s)
        assert outcomes[0].cold_start
        assert all(not r.cold_start for r in outcomes[1:])

    def test_long_idle_gap_goes_cold(self):
        preset = get_platform_preset("aws_lambda_like")
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5, init_duration_s=1.0)
        arrivals = idle_gap_probe_arrivals([600.0] * 4)
        metrics = PlatformSimulator(preset, function, seed=5).run(arrivals)
        outcomes = sorted(metrics.requests, key=lambda r: r.arrival_s)
        assert all(r.cold_start for r in outcomes)

    def test_cold_start_records_init_duration(self):
        preset = get_platform_preset("aws_lambda_like")
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5, init_duration_s=1.0)
        metrics = PlatformSimulator(preset, function, seed=5).run([0.0])
        outcome = metrics.requests[0]
        assert outcome.cold_start
        assert outcome.init_duration_s >= 1.0
        assert outcome.turnaround_s > outcome.execution_duration_s

    def test_later_deadline_rearms_the_pending_check(self):
        """A check armed for a superseded deadline re-arms at the current one.

        With a fixed window K, the second request's idle transition moves the
        deadline past the pending check, so no second check is scheduled at
        idle time; the first check must re-arm itself when it fires.
        """
        import dataclasses

        from repro.sim.events import SandboxTerminated

        keep_alive_s = 10.0
        preset = get_platform_preset("aws_lambda_like")
        platform = dataclasses.replace(
            preset,
            keep_alive=dataclasses.replace(
                preset.keep_alive, min_keep_alive_s=keep_alive_s, max_keep_alive_s=keep_alive_s
            ),
        )
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5, init_duration_s=0.5)
        simulator = PlatformSimulator(platform, function, seed=5)
        terminations = []
        simulator.bus.subscribe(SandboxTerminated, terminations.append)
        metrics = simulator.run([0.0, 5.0], horizon_s=100.0)

        first, second = sorted(metrics.requests, key=lambda r: r.arrival_s)
        assert first.cold_start and not second.cold_start
        assert second.completion_s > first.completion_s
        assert [(t.reason, t.time_s) for t in terminations] == [
            ("keepalive_expire", second.completion_s + keep_alive_s)
        ]

    def test_empty_arrivals(self):
        preset = get_platform_preset("aws_lambda_like")
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5)
        metrics = PlatformSimulator(preset, function).run([])
        assert metrics.num_requests == 0


class TestSandboxLifecycleEvents:
    """The simulator publishes the full typed lifecycle on its bus."""

    def _run_with_listener(self, arrivals, platform="aws_lambda_like", horizon_s=None):
        from repro.sim.events import (
            EventBus,
            SandboxBusy,
            SandboxColdStart,
            SandboxIdle,
            SandboxTerminated,
        )

        preset = get_platform_preset(platform)
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5, init_duration_s=0.5)
        bus = EventBus()
        log = []
        for event_type in (SandboxColdStart, SandboxBusy, SandboxIdle, SandboxTerminated):
            bus.subscribe(event_type, lambda e, kind=event_type.__name__: log.append((kind, e)))
        simulator = PlatformSimulator(preset, function, seed=5, bus=bus)
        simulator.run(arrivals, horizon_s=horizon_s)
        return log

    def test_cold_start_busy_idle_sequence(self):
        log = self._run_with_listener([0.0])
        kinds = [kind for kind, _ in log]
        assert kinds[:3] == ["SandboxColdStart", "SandboxBusy", "SandboxIdle"]
        cold = log[0][1]
        assert cold.function_name == "minimal"
        assert cold.alloc_vcpus == pytest.approx(1.0)
        assert cold.init_duration_s == pytest.approx(0.55)  # placement delay + init

    def test_keepalive_expiry_terminates_once(self):
        # Horizon past the AWS max keep-alive (360 s) so the expiry fires.
        log = self._run_with_listener([0.0], horizon_s=500.0)
        terminations = [event for kind, event in log if kind == "SandboxTerminated"]
        assert len(terminations) == 1
        assert terminations[0].reason == "keepalive_expire"
        assert [kind for kind, _ in log][-1] == "SandboxTerminated"

    def test_named_simulator_namespaces_sandboxes(self):
        from repro.sim.events import EventBus, SandboxColdStart
        from repro.sim.kernel import SimulationKernel

        preset = get_platform_preset("aws_lambda_like")
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5)
        bus = EventBus()
        names = []
        bus.subscribe(SandboxColdStart, lambda e: names.append(e.sandbox_name))
        kernel = SimulationKernel()
        simulator = PlatformSimulator(preset, function, seed=1, bus=bus, kernel=kernel, name="fn-a")
        horizon = simulator.schedule_arrivals([0.0])
        kernel.run(until=horizon)
        assert names and all(name.startswith("fn-a/sandbox-") for name in names)

    def test_shared_kernel_requires_name(self):
        from repro.sim.kernel import SimulationKernel

        preset = get_platform_preset("aws_lambda_like")
        function = MINIMAL_FUNCTION.to_function_config(1.0, 0.5)
        with pytest.raises(ValueError):
            PlatformSimulator(preset, function, kernel=SimulationKernel())
