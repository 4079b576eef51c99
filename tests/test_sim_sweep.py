"""Tests for the scenario-sweep orchestrator, result store, and run determinism."""

from __future__ import annotations

import pytest

from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.sim.events import EventBus, SimEvent
from repro.sim.results import ResultStore
from repro.sim.sweep import Scenario, build_grid, resolve_runner, run_scenario, run_sweep
from repro.workloads.functions import PYAES_FUNCTION
from repro.workloads.traffic import constant_rate_arrivals


def _trace_run(seed: int, platform: str = "gcp_run_like"):
    """One platform-simulator run; returns (event trace, metrics summary).

    Sandbox names are per-simulator (not process-global), so two runs with the
    same seed must produce byte-identical traces even mid-process.
    """
    bus = EventBus()
    trace = []
    bus.subscribe(SimEvent, lambda e: trace.append(repr(e)))
    preset = get_platform_preset(platform)
    function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=1.0)
    simulator = PlatformSimulator(preset, function, seed=seed, bus=bus)
    metrics = simulator.run(constant_rate_arrivals(10, 30.0))
    return trace, metrics.summary()


class TestDeterminism:
    def test_same_seed_identical_event_trace_and_metrics(self):
        trace_a, summary_a = _trace_run(seed=123)
        trace_b, summary_b = _trace_run(seed=123)
        assert trace_a == trace_b  # byte-identical event order and payloads
        assert summary_a == summary_b

    def test_different_seeds_different_traces(self):
        trace_a, _ = _trace_run(seed=1)
        trace_b, _ = _trace_run(seed=2)
        assert trace_a != trace_b

    def test_shared_bus_does_not_cross_contaminate_metrics(self):
        bus = EventBus()
        observed = []
        bus.subscribe(SimEvent, lambda e: observed.append(e))
        preset = get_platform_preset("aws_lambda_like")
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=1.0)
        first = PlatformSimulator(preset, function, seed=1, bus=bus)
        second = PlatformSimulator(preset, function, seed=2, bus=bus)
        first.run([0.0, 1.0])
        second.run([0.0, 1.0])
        # Each simulator's metrics only count its own two requests; the shared
        # bus observes all events from both.
        assert first.metrics.num_requests == 2
        assert second.metrics.num_requests == 2
        assert len(observed) > 0

    def test_extra_subscriber_does_not_perturb_results(self):
        _, baseline = _trace_run(seed=9)
        bus = EventBus()
        bus.subscribe(SimEvent, lambda e: None)  # a passive observer
        preset = get_platform_preset("gcp_run_like")
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=1.0)
        simulator = PlatformSimulator(preset, function, seed=9, bus=bus)
        metrics = simulator.run(constant_rate_arrivals(10, 30.0))
        assert metrics.summary() == baseline


class TestGridAndScenarios:
    def test_build_grid_cartesian_product(self):
        scenarios = build_grid(
            runner="repro.sim.sweep:platform_point",
            axes={"platform": ["a", "b"], "rps": [1, 2, 3]},
            base_seed=7,
        )
        assert len(scenarios) == 6
        assert sorted({s.params["platform"] for s in scenarios}) == ["a", "b"]

    def test_grid_seeds_stable_and_distinct(self):
        axes = {"platform": ["a", "b"], "rps": [1, 2]}
        first = build_grid("m:f", axes, base_seed=7)
        second = build_grid("m:f", axes, base_seed=7)
        assert [s.seed for s in first] == [s.seed for s in second]
        assert len({s.seed for s in first}) == len(first)
        other = build_grid("m:f", axes, base_seed=8)
        assert [s.seed for s in first] != [s.seed for s in other]

    def test_grid_fixed_seed(self):
        scenarios = build_grid("m:f", {"rps": [1, 2]}, base_seed=7, fixed_seed=42)
        assert [s.seed for s in scenarios] == [42, 42]

    def test_resolve_runner_validates(self):
        with pytest.raises(ValueError):
            resolve_runner("not.a.path")
        with pytest.raises(ValueError):
            resolve_runner("repro.sim.sweep:missing_function")
        assert callable(resolve_runner("repro.sim.sweep:platform_point"))

    def test_run_scenario_normalises_rows(self):
        scenario = Scenario(
            scenario_id="one",
            runner="repro.sim.sweep:platform_point",
            params={"platform": "aws_lambda_like", "workload": "minimal", "rps": 2.0, "duration_s": 5.0},
            seed=3,
        )
        rows = run_scenario(scenario)
        assert len(rows) == 1
        assert rows[0]["platform"] == "aws_lambda_like"
        assert rows[0]["num_requests"] == 10.0


def _seeded_rows(params, seed):
    """A list-returning runner: one row per requested copy, tagged by seed."""
    label = params["label"]
    return [{"label": label, "copy": copy, "seed": seed} for copy in range(params["copies"])]


class TestParallelSweep:
    @pytest.fixture(scope="class")
    def grid(self):
        return build_grid(
            runner="repro.sim.sweep:platform_point",
            axes={
                "platform": ["aws_lambda_like", "gcp_run_like"],
                "workload": ["minimal", "pyaes"],
                "rps": [1.0, 4.0],
            },
            common={"duration_s": 10.0},
            base_seed=2026,
        )

    def test_parallel_equals_sequential(self, grid):
        sequential = run_sweep(grid)
        parallel = run_sweep(grid, backend="multiprocessing:2")
        assert sequential.rows == parallel.rows

    def test_sequential_rerun_is_reproducible(self, grid):
        assert run_sweep(grid).rows == run_sweep(grid).rows

    def test_list_rows_are_identical_serial_and_pooled(self):
        grid = build_grid(
            runner=f"{__name__}:_seeded_rows",
            axes={"label": ["a", "b", "c"], "copies": [1, 3]},
            base_seed=3,
        )
        sequential = run_sweep(grid)
        assert len(sequential) == 12
        assert run_sweep(grid, backend="multiprocessing:2") == sequential

    def test_figure6_routes_through_sweep_identically(self):
        from repro.analysis.concurrency import figure6_burst_sweep

        sequential = figure6_burst_sweep(rps_sweep=(1, 10), burst_duration_s=20.0)
        parallel = figure6_burst_sweep(
            rps_sweep=(1, 10), burst_duration_s=20.0, backend="multiprocessing:2"
        )
        assert sequential == parallel
        assert [row["platform"] for row in sequential] == ["aws", "aws", "gcp", "gcp"]

    def test_figure10_routes_through_sweep_identically(self):
        from repro.analysis.overallocation import figure10_allocation_sweep

        kwargs = dict(vcpu_fractions=(0.25, 0.5), samples_per_point=3)
        parallel = figure10_allocation_sweep(backend="multiprocessing:2", **kwargs)
        assert figure10_allocation_sweep(**kwargs) == parallel


class TestWorkStealingSweep:
    """The pool's completion order never reaches the rows."""

    @pytest.fixture(scope="class")
    def heterogeneous_grid(self):
        # Deliberately uneven point costs (rps and duration vary 10x) so the
        # pool genuinely completes scenarios out of order.
        grid = []
        for duration in (2.0, 20.0):
            grid.extend(
                build_grid(
                    runner="repro.sim.sweep:platform_point",
                    axes={
                        "platform": ["aws_lambda_like", "gcp_run_like"],
                        "rps": [1.0, 10.0],
                    },
                    common={"workload": "minimal", "duration_s": duration},
                    base_seed=int(duration),
                )
            )
        return grid

    def test_unordered_csv_is_byte_identical_to_ordered(self, heterogeneous_grid, tmp_path):
        ordered = run_sweep(heterogeneous_grid, backend="serial")
        unordered = run_sweep(heterogeneous_grid, backend="multiprocessing:2")
        assert ordered == unordered
        ordered_path, unordered_path = tmp_path / "ordered.csv", tmp_path / "unordered.csv"
        ordered.to_csv(str(ordered_path))
        unordered.to_csv(str(unordered_path))
        assert ordered_path.read_bytes() == unordered_path.read_bytes()

    def test_unordered_sequential_fallback_matches(self, heterogeneous_grid):
        # A one-worker pool runs the points one at a time; it must still
        # match the in-process run.
        single = run_sweep(heterogeneous_grid, backend="multiprocessing:1")
        assert single == run_sweep(heterogeneous_grid)


class TestResultStore:
    @pytest.fixture()
    def store(self):
        return ResultStore(
            [
                {"platform": "aws", "rps": 1.0, "mean_ms": 10.0},
                {"platform": "aws", "rps": 2.0, "mean_ms": 12.0},
                {"platform": "gcp", "rps": 1.0, "mean_ms": 20.0},
            ]
        )

    def test_len_iter_columns(self, store):
        assert len(store) == 3
        assert store.columns() == ["platform", "rps", "mean_ms"]
        assert [row["platform"] for row in store] == ["aws", "aws", "gcp"]

    def test_filter_and_unique(self, store):
        aws = store.filter(platform="aws")
        assert len(aws) == 2
        assert store.filter(platform="aws", rps=2.0).rows[0]["mean_ms"] == 12.0
        assert store.unique("platform") == ["aws", "gcp"]

    def test_group_by_and_summarize(self, store):
        groups = store.group_by("platform")
        assert set(groups) == {"aws", "gcp"}
        summary = {row["platform"]: row for row in store.summarize("platform", "mean_ms")}
        assert summary["aws"]["mean_mean_ms"] == pytest.approx(11.0)
        assert summary["aws"]["count"] == 2

    def test_to_csv_roundtrip(self, store, tmp_path):
        path = tmp_path / "rows.csv"
        assert store.to_csv(str(path)) == 3
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "platform,rps,mean_ms"
        assert len(lines) == 4

    def test_store_appends_copies(self):
        row = {"a": 1}
        store = ResultStore()
        store.append(row)
        row["a"] = 2
        assert store.rows[0]["a"] == 1


class TestSweepCli:
    def test_cli_sweep_runs_grid(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--platforms",
                "aws_lambda_like",
                "--workloads",
                "minimal",
                "--rps",
                "1,2",
                "--duration-s",
                "5",
                "--backend",
                "multiprocessing:2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 scenarios" in out
        assert "aws_lambda_like" in out

    def test_cli_sweep_writes_csv(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--platforms",
                "aws_lambda_like",
                "--workloads",
                "minimal",
                "--rps",
                "1",
                "--duration-s",
                "5",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        assert output.read_text().startswith("platform,")

    def test_cli_sweep_rejects_bad_input(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--rps", "not-a-number"]) == 2
        assert main(["sweep", "--platforms", ""]) == 2
        assert main(["sweep", "--platforms", "no_such_platform"]) == 2


class TestResultStoreCsvRoundTrip:
    def test_from_csv_round_trips_rows(self, tmp_path):
        store = ResultStore(
            [
                {"platform": "aws", "rps": 1.0, "count": 3, "label": "x"},
                {"platform": "gcp", "rps": 2.5, "count": 4, "label": "y"},
            ]
        )
        path = tmp_path / "rows.csv"
        store.to_csv(str(path))
        loaded = ResultStore.from_csv(str(path))
        assert loaded.rows == store.rows
        assert loaded.columns() == store.columns()

    def test_from_csv_preserves_numeric_types(self, tmp_path):
        path = tmp_path / "rows.csv"
        ResultStore([{"a": 1, "b": 1.5, "c": "text"}]).to_csv(str(path))
        row = ResultStore.from_csv(str(path)).rows[0]
        assert row["a"] == 1 and isinstance(row["a"], int)
        assert row["b"] == 1.5 and isinstance(row["b"], float)
        assert row["c"] == "text"


class TestClusterCli:
    def test_cli_cluster_writes_csv(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "cluster.csv"
        code = main(
            [
                "cluster",
                "--fleet-sizes",
                "3",
                "--policies",
                "best_fit",
                "--keep-alive-s",
                "60",
                "--duration-s",
                "10",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        header = output.read_text().splitlines()[0]
        assert "placement_policy" in header and "cost_usd" in header

    def test_cli_cluster_rejects_bad_input(self, capsys):
        from repro.cli import main

        assert main(["cluster", "--fleet-sizes", "not-a-number"]) == 2
        assert main(["cluster", "--policies", ""]) == 2
        assert main(["cluster", "--platform", "no_such_platform"]) == 2
