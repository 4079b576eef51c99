"""Tests for the cluster co-simulation: Fleet, ClusterSimulator, and the cost sweep."""

import dataclasses

import pytest

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import Fleet, FleetConfig
from repro.cluster.host import HostSpec
from repro.cluster.placement import PlacementPolicy
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.sim.events import EventBus, SandboxAdmitted, SandboxTerminated
from repro.sim.kernel import SimulationKernel
from repro.workloads.functions import PYAES_FUNCTION


def _deployments(count, platform="gcp_run_like", rps=4.0, duration_s=20.0):
    preset = get_platform_preset(platform)
    out = []
    for index in range(count):
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=1.0)
        function = dataclasses.replace(function, name=f"fn-{index:02d}")
        out.append(FunctionDeployment(function=function, platform=preset, rps=rps, duration_s=duration_s))
    return out


class TestFleet:
    def test_admit_and_release_capacity(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=4, memory_gb=16)))
        host = fleet.admit(0.0, "sb-0", 2.0, 8.0)
        assert host is not None and host.allocated_vcpus == pytest.approx(2.0)
        assert fleet.num_placed == 1
        fleet.release(5.0, "sb-0")
        assert fleet.num_placed == 0
        assert host.allocated_vcpus == pytest.approx(0.0)
        assert fleet.admitted == 1 and fleet.released == 1

    def test_opens_hosts_on_demand_with_deterministic_names(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8)))
        for index in range(4):
            fleet.admit(0.0, f"sb-{index}", 2.0, 4.0)
        assert [host.name for host in fleet.hosts] == [
            "host-00000",
            "host-00001",
            "host-00002",
            "host-00003",
        ]

    def test_oversized_sandbox_unplaceable(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=2, memory_gb=8)))
        assert fleet.admit(1.0, "big", 4.0, 4.0) is None
        assert fleet.unplaceable == [(1.0, "big")]
        # Releasing an unplaced sandbox is a harmless no-op.
        fleet.release(2.0, "big")
        assert fleet.released == 0

    def test_host_cap_zero_rejects_everything(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=4, memory_gb=16), max_hosts=0))
        assert fleet.admit(0.0, "sb-0", 1.0, 1.0) is None
        assert len(fleet.unplaceable) == 1
        assert fleet.hosts == []

    def test_best_fit_reuses_fuller_host(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=8, memory_gb=32), policy=PlacementPolicy.BEST_FIT))
        fleet.admit(0.0, "a", 6.0, 24.0)  # host-0 mostly full
        fleet.admit(0.0, "b", 1.0, 4.0)   # fits host-0; best-fit keeps it there
        assert fleet.host_of("b") is fleet.host_of("a")

    def test_worst_fit_prefers_emptier_host(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=8, memory_gb=32), policy=PlacementPolicy.WORST_FIT))
        fleet.admit(0.0, "a", 6.0, 24.0)
        fleet.admit(0.0, "b", 6.0, 24.0)  # does not fit host-0 -> host-1
        fleet.admit(0.0, "c", 1.0, 4.0)
        fleet.admit(0.0, "d", 1.0, 4.0)
        # Worst-fit spreads the small sandboxes across both hosts.
        assert fleet.host_of("c") is not fleet.host_of("d")

    def test_bus_driven_admission_and_eviction(self):
        """A simulator's cold start places its sandbox, and its expiry releases it.

        The simulator calls the fleet right after each publish; the fleet
        publishes its admission on the bus it is attached to.
        """
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=4, memory_gb=16)))
        bus = EventBus()
        fleet.attach(bus)
        admitted = []
        bus.subscribe(SandboxAdmitted, admitted.append)
        (deployment,) = _deployments(1)
        keep_alive = dataclasses.replace(
            deployment.platform.keep_alive, min_keep_alive_s=5.0, max_keep_alive_s=5.0
        )
        platform = dataclasses.replace(deployment.platform, keep_alive=keep_alive)
        simulator = PlatformSimulator(platform, deployment.function, bus=bus, fleet=fleet)
        placed_at_termination = []
        simulator.bus.subscribe(
            SandboxTerminated, lambda event: placed_at_termination.append(fleet.num_placed)
        )
        simulator.run([0.0], horizon_s=60.0)
        assert [e.sandbox_name for e in admitted] == ["sandbox-000000"]
        assert placed_at_termination == [1]  # released right after the publish
        assert fleet.num_placed == 0 and fleet.admitted == fleet.released == 1

    def test_kernel_sampling_timeline(self):
        fleet = Fleet(FleetConfig(host_spec=HostSpec(vcpus=4, memory_gb=16), sample_interval_s=5.0))
        kernel = SimulationKernel()
        kernel.add_process(fleet)
        kernel.run(until=20.0)
        assert [row["time_s"] for row in fleet.timeline] == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert all(row["hosts_open"] == 0.0 for row in fleet.timeline)

    def test_sampling_disabled(self):
        fleet = Fleet(FleetConfig(sample_interval_s=None))
        assert fleet.next_event_time(0.0) is None

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FleetConfig(max_hosts=-1)
        with pytest.raises(ValueError):
            FleetConfig(sample_interval_s=0.0)


class TestClusterSimulator:
    def test_serves_all_traffic_and_places_all_sandboxes(self):
        simulator = ClusterSimulator(
            _deployments(3),
            fleet_config=FleetConfig(host_spec=HostSpec(vcpus=8, memory_gb=32)),
            billing_platform="gcp_run_request",
            seed=7,
        )
        result = simulator.run()
        summary = result.summary()
        assert summary["num_requests"] == 3 * 4.0 * 20.0
        assert summary["unplaceable"] == 0.0
        assert summary["hosts_open"] >= 1.0
        assert summary["cost_usd"] > 0.0
        # Every cold start the simulators published reached the fleet.
        total_cold = sum(
            sum(1 for r in m.requests if r.cold_start) for m in result.metrics.values()
        )
        assert result.fleet.admitted >= total_cold > 0

    def test_deterministic_given_seed(self):
        def run():
            simulator = ClusterSimulator(
                _deployments(3),
                fleet_config=FleetConfig(host_spec=HostSpec(vcpus=8, memory_gb=32)),
                billing_platform="aws_lambda",
                seed=11,
            )
            return simulator.run().summary()

        assert run() == run()

    def test_short_keepalive_releases_capacity(self):
        preset = get_platform_preset("gcp_run_like")
        keep_alive = dataclasses.replace(
            preset.keep_alive, min_keep_alive_s=2.0, max_keep_alive_s=4.0
        )
        preset = dataclasses.replace(preset, keep_alive=keep_alive)
        deployments = []
        for index in range(2):
            function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)
            function = dataclasses.replace(function, name=f"fn-{index:02d}")
            deployments.append(
                FunctionDeployment(function=function, platform=preset, rps=2.0, duration_s=10.0)
            )
        simulator = ClusterSimulator(deployments, seed=3)
        result = simulator.run()
        assert result.fleet.released > 0

    def test_unique_names_required(self):
        deployments = _deployments(2)
        clash = dataclasses.replace(
            deployments[1], function=dataclasses.replace(deployments[1].function, name="fn-00")
        )
        with pytest.raises(ValueError):
            ClusterSimulator([deployments[0], clash])

    def test_empty_deployments_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator([])

    def test_run_twice_rejected(self):
        simulator = ClusterSimulator(_deployments(1, rps=1.0, duration_s=2.0), seed=1)
        simulator.run()
        with pytest.raises(RuntimeError):
            simulator.run()


class TestClusterCostSweep:
    AXES = {
        "num_functions": (3,),
        "placement_policy": ("first_fit", "best_fit"),
        "keep_alive_s": (60.0,),
    }
    COMMON = {"duration_s": 15.0, "rps_per_function": 2.0}

    def test_sequential_and_parallel_rows_identical(self, tmp_path):
        from repro.analysis.cluster_costs import cluster_cost_sweep

        sequential = cluster_cost_sweep(axes=self.AXES, common=self.COMMON, base_seed=5)
        parallel = cluster_cost_sweep(
            axes=self.AXES, common=self.COMMON, base_seed=5, backend="multiprocessing:2"
        )
        assert sequential == parallel
        # Acceptance criterion: byte-identical CSV exports.
        seq_path, par_path = tmp_path / "seq.csv", tmp_path / "par.csv"
        sequential.to_csv(str(seq_path))
        parallel.to_csv(str(par_path))
        assert seq_path.read_bytes() == par_path.read_bytes()

    def test_rows_carry_fleet_and_cost_columns(self):
        from repro.analysis.cluster_costs import cluster_cost_sweep

        store = cluster_cost_sweep(
            axes={"num_functions": (3,), "placement_policy": ("best_fit",), "keep_alive_s": (60.0,)},
            common=self.COMMON,
            base_seed=5,
        )
        row = store.rows[0]
        assert {"placement_policy", "hosts_open", "cost_usd", "billable_cpu_seconds"} <= set(row)
        assert row["num_requests"] > 0

    def test_experiment_registry_entry_runs(self):
        from repro.analysis.experiments import EXPERIMENTS

        assert "cluster_costs" in EXPERIMENTS
