"""Property-based determinism tests: same seed => byte-identical cluster runs and sweeps."""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.cluster.placement import PlacementPolicy
from repro.platform.presets import get_platform_preset
from repro.sim.sweep import build_grid, run_sweep
from repro.workloads.functions import PYAES_FUNCTION


def _run_cluster(seed, policy, queue_depth, arrival_process):
    preset = get_platform_preset("gcp_run_like")
    deployments = []
    for index in range(2):
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)
        function = dataclasses.replace(function, name=f"fn-{index:02d}")
        deployments.append(
            FunctionDeployment(
                function=function,
                platform=preset,
                rps=3.0,
                duration_s=6.0,
                arrival_process=arrival_process,
            )
        )
    simulator = ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=2, memory_gb=4),
            policy=policy,
            max_hosts=1,
            queue_depth=queue_depth,
            sample_interval_s=2.0,
        ),
        billing_platform="aws_lambda",
        seed=seed,
    )
    result = simulator.run()
    # Serialise everything observable -- summary row, the full fleet timeline,
    # and the admission-queue tail -- so "byte-identical" means exactly that.
    return json.dumps(
        {
            "summary": result.summary(),
            "timeline": result.fleet.timeline,
            "queue": list(result.fleet.queue),
            "unplaceable": result.fleet.unplaceable,
        },
        sort_keys=True,
    ).encode()


class TestClusterRunDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        policy=st.sampled_from(
            [
                PlacementPolicy.FIRST_FIT,
                PlacementPolicy.BEST_FIT,
                PlacementPolicy.WORST_FIT,
                PlacementPolicy.COST_FIT,
            ]
        ),
        queue_depth=st.sampled_from([0, 3, 16]),
        arrival_process=st.sampled_from(["constant", "poisson"]),
    )
    def test_same_seed_byte_identical(self, seed, policy, queue_depth, arrival_process):
        """Any ClusterSimulator configuration replays byte-identically from its seed."""
        first = _run_cluster(seed, policy, queue_depth, arrival_process)
        second = _run_cluster(seed, policy, queue_depth, arrival_process)
        assert first == second


class TestSweepDeterminism:
    AXES = {
        "queue_depth": (0, 4),
        "placement_policy": ("best_fit", "cost_fit"),
        "heterogeneity": ("homogeneous", "two_tier"),
    }
    COMMON = {"duration_s": 8.0, "num_functions": 3, "rps_per_function": 2.0}

    def test_backpressure_sweep_sequential_equals_parallel_bytes(self, tmp_path):
        """Acceptance criterion: seq vs parallel backpressure CSVs are byte-identical."""
        grid = build_grid(
            runner="repro.analysis.backpressure:backpressure_point",
            axes=self.AXES,
            common=self.COMMON,
            base_seed=17,
        )
        sequential = run_sweep(grid)
        parallel = run_sweep(grid, backend="multiprocessing:2")
        assert sequential == parallel
        seq_path, par_path = tmp_path / "seq.csv", tmp_path / "par.csv"
        sequential.to_csv(str(seq_path))
        parallel.to_csv(str(par_path))
        assert seq_path.read_bytes() == par_path.read_bytes()
        # The grid genuinely exercises backpressure: some point queued work.
        assert any(row["queued"] > 0 for row in sequential.rows)
