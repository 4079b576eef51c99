"""Tests for pluggable sweep backends, checkpoint/resume, and the sweep-layer bugfixes.

The tentpole invariant: every backend (serial, multiprocessing pool, or any
``SweepBackend`` instance) produces *byte-identical* sweep CSVs, with or
without a checkpoint journal, across kill/resume boundaries, because each
scenario is self-contained (runner path + params + derived seed) and the
sweep layer reassembles rows by grid index.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.sim.backends import (
    BACKEND_NAMES,
    MultiprocessingBackend,
    PointOutcome,
    SerialBackend,
    SweepPointError,
    execute_point,
    resolve_backend,
)
from repro.sim.checkpoint import SweepJournal
from repro.sim.params import ScenarioParamError
from repro.sim.rng import derive_seed
from repro.sim.sweep import build_grid, run_sweep


def _grid(rates=(1.0, 2.0), base_seed=7):
    """A small, cheap grid: the minimal echo workload in virtual time."""
    return build_grid(
        runner="repro.sim.sweep:platform_point",
        axes={"platform": ["aws_lambda_like"], "workload": ["minimal"], "rps": list(rates)},
        common={"duration_s": 5.0, "arrival_process": "constant"},
        base_seed=base_seed,
    )


def _csv_bytes(store, path) -> bytes:
    store.to_csv(str(path))
    return path.read_bytes()


def _broken(scenario):
    """The same grid point, pointed at a platform preset that does not exist."""
    return dataclasses.replace(scenario, params={**scenario.params, "platform": "no_such"})


class _RecordingSerial(SerialBackend):
    """Serial backend that records which grid indexes it actually executed."""

    def __init__(self):
        self.ran = []

    def run(self, items):
        for item in items:
            self.ran.append(item[0])
            yield execute_point(item, keep_cause=True)


# ----------------------------------------------------------------------
# Satellite bugfix: seed/scenario-id aliasing in build_grid
# ----------------------------------------------------------------------


class TestSeedAliasingFix:
    def test_separator_values_no_longer_collide(self):
        # Before escaping, (a="x", b="y/b=y") and (a="x/b=y", b="y") both
        # rendered as "a=x/b=y/b=y" -- aliased ids, aliased seed streams.
        scenarios = build_grid(
            runner="r", axes={"a": ["x", "x/b=y"], "b": ["y", "y/b=y"]}, base_seed=1
        )
        ids = [s.scenario_id for s in scenarios]
        assert len(set(ids)) == len(ids) == 4
        assert len({s.seed for s in scenarios}) == 4

    def test_structural_characters_are_percent_encoded(self):
        (s,) = build_grid(runner="r", axes={"platform": ["aws/lambda"]}, base_seed=0)
        assert s.scenario_id == "platform=aws%2Flambda"
        (s,) = build_grid(runner="r", axes={"p": ["a=b"]}, base_seed=0)
        assert s.scenario_id == "p=a%3Db"
        (s,) = build_grid(runner="r", axes={"p": ["50%"]}, base_seed=0)
        assert s.scenario_id == "p=50%25"

    def test_axis_names_are_escaped_too(self):
        (s,) = build_grid(runner="r", axes={"a=b": ["x"]}, base_seed=0)
        assert s.scenario_id == "a%3Db=x"

    def test_escaping_is_injective_for_preescaped_text(self):
        # A value that *looks* escaped must not collide with the value whose
        # escape it resembles: "%" itself is encoded first.
        a = build_grid(runner="r", axes={"v": ["a%2Fb"]}, base_seed=0)[0]
        b = build_grid(runner="r", axes={"v": ["a/b"]}, base_seed=0)[0]
        assert a.scenario_id != b.scenario_id
        assert a.seed != b.seed

    def test_legacy_ids_and_seeds_are_byte_identical(self):
        # Separator-free values -- every value the stock CLIs produce --
        # render exactly as before, so existing CSVs and goldens reproduce.
        (s,) = build_grid(
            runner="r", axes={"platform": ["aws_lambda_like"], "rps": [1.5]}, base_seed=2026
        )
        assert s.scenario_id == "platform=aws_lambda_like/rps=1.5"
        assert s.seed == derive_seed(2026, "platform=aws_lambda_like/rps=1.5")

    @given(
        a=st.lists(st.text(alphabet="ab/=%", max_size=5), min_size=1, max_size=4, unique=True),
        b=st.lists(st.text(alphabet="ab/=%", max_size=5), min_size=1, max_size=4, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_distinct_points_always_get_distinct_ids(self, a, b):
        scenarios = build_grid(runner="r", axes={"a": a, "b": b}, base_seed=3)
        ids = [s.scenario_id for s in scenarios]
        assert len(set(ids)) == len(ids) == len(a) * len(b)


# ----------------------------------------------------------------------
# Tentpole: backend equivalence
# ----------------------------------------------------------------------


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def reference_bytes(self, tmp_path_factory):
        store = run_sweep(_grid(), backend="serial")
        return _csv_bytes(store, tmp_path_factory.mktemp("ref") / "ref.csv")

    @pytest.mark.parametrize("backend", ["serial", "multiprocessing:2"])
    @pytest.mark.parametrize("journaled", [True, False])
    def test_in_process_backends_byte_identical(
        self, backend, journaled, reference_bytes, tmp_path
    ):
        checkpoint = str(tmp_path / "sweep.jsonl") if journaled else None
        store = run_sweep(_grid(), backend=backend, checkpoint=checkpoint)
        assert _csv_bytes(store, tmp_path / "out.csv") == reference_bytes

    def test_explicit_backend_instances_byte_identical(self, reference_bytes, tmp_path):
        for backend in (SerialBackend(), MultiprocessingBackend(2)):
            store = run_sweep(_grid(), backend=backend)
            assert _csv_bytes(store, tmp_path / f"{backend.name}.csv") == reference_bytes

    @given(rates=st.lists(st.integers(1, 4).map(float), min_size=1, max_size=3, unique=True))
    @settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_property_serial_equals_workstealing_pool(self, rates, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("prop")
        serial = run_sweep(_grid(rates), backend="serial")
        stolen = run_sweep(_grid(rates), backend="multiprocessing:2")
        assert _csv_bytes(serial, tmp / "a.csv") == _csv_bytes(stolen, tmp / "b.csv")


# ----------------------------------------------------------------------
# Tentpole: checkpoint/resume
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_completed_points_skip_on_resume(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = run_sweep(_grid(), checkpoint=str(journal))
        recorder = _RecordingSerial()
        second = run_sweep(_grid(), backend=recorder, checkpoint=str(journal))
        assert recorder.ran == []  # nothing re-executed
        assert second.rows == first.rows

    def test_kill_resume_csv_byte_identical(self, tmp_path):
        grid = _grid(rates=(1.0, 2.0, 3.0, 4.0))
        reference = _csv_bytes(run_sweep(grid), tmp_path / "ref.csv")

        journal = tmp_path / "sweep.jsonl"
        run_sweep(grid, checkpoint=str(journal))
        # Simulate a kill after point 1: two intact lines plus a torn third.
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])

        recorder = _RecordingSerial()
        resumed = run_sweep(grid, backend=recorder, checkpoint=str(journal))
        assert sorted(recorder.ran) == [2, 3]  # the torn and missing points only
        assert _csv_bytes(resumed, tmp_path / "resumed.csv") == reference

    def test_stale_seed_entries_rerun(self, tmp_path):
        grid = _grid(rates=(1.0,))
        journal = tmp_path / "sweep.jsonl"
        with SweepJournal(journal) as stale:
            stale.record(grid[0].scenario_id, grid[0].seed + 1, [{"rps": 999.0}])
        recorder = _RecordingSerial()
        store = run_sweep(grid, backend=recorder, checkpoint=str(journal))
        assert recorder.ran == [0]  # seed mismatch -> not resumed from the journal
        assert store.rows[0]["rps"] == 1.0


# ----------------------------------------------------------------------
# Satellite bugfix: failures name the point and never discard finished work
# ----------------------------------------------------------------------


class TestSweepPointError:
    def test_serial_failure_names_point_and_chains_cause(self):
        grid = [_broken(s) for s in _grid(rates=(1.0,))]
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(grid)
        error = excinfo.value
        assert error.scenario_id == grid[0].scenario_id
        assert error.seed == grid[0].seed
        assert error.error_type == "ScenarioParamError"
        assert "no_such" in str(error)
        assert isinstance(error.__cause__, ScenarioParamError)  # serial keeps the live chain

    def test_pool_failure_carries_worker_traceback(self):
        grid = [_broken(s) for s in _grid(rates=(1.0, 2.0))]
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(grid, backend="multiprocessing:2")
        assert "ScenarioParamError" in (excinfo.value.traceback_text or "")

    def test_completed_rows_are_journaled_before_the_raise(self, tmp_path):
        grid = _grid(rates=(1.0, 2.0))
        broken = [grid[0], _broken(grid[1])]
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(SweepPointError):
            run_sweep(broken, checkpoint=str(journal))
        entries = SweepJournal(journal).load()
        assert (grid[0].scenario_id, grid[0].seed) in entries  # finished work survived

        # Fixing the bad point and re-running resumes: only it re-executes.
        recorder = _RecordingSerial()
        store = run_sweep(grid, backend=recorder, checkpoint=str(journal))
        assert recorder.ran == [1]
        assert len(store) == 2


#: Four points on a two-worker pool; the worker that takes point 2 exits
#: without returning, as a killed or crashed worker would.
DYING_SWEEP = textwrap.dedent(
    """
    import os, sys
    from repro.sim.backends import SweepPointError
    from repro.sim.sweep import Scenario, run_sweep

    def runner(params, seed):
        if params["die"]:
            os._exit(3)
        return {"point": params["point"]}

    grid = [Scenario(f"p{i}", "__main__:runner", {"point": i, "die": i == 2}, i) for i in range(4)]
    try:
        run_sweep(grid, backend="multiprocessing:2", checkpoint=sys.argv[1])
    except SweepPointError as error:
        print(error.error_type)
        sys.exit(1)
    """
)


class TestDeadWorker:
    def test_a_dead_worker_fails_the_sweep_instead_of_hanging(self, tmp_path):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        journal = tmp_path / "grid.jsonl"
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
        done = subprocess.run(
            [sys.executable, "-c", DYING_SWEEP, str(journal)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout.strip() == "BrokenProcessPool"
        # The point the dead worker had finished before was journaled first.
        journaled = SweepJournal(journal).load()
        assert journaled and {key[0] for key in journaled} <= {"p0", "p1", "p3"}


# ----------------------------------------------------------------------
# Backend resolution: the spec grammar
# ----------------------------------------------------------------------


class TestBackendResolution:
    def test_spec_grammar(self):
        import multiprocessing

        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        every_core = resolve_backend("multiprocessing")
        assert isinstance(every_core, MultiprocessingBackend)
        assert every_core.processes == multiprocessing.cpu_count()
        assert resolve_backend("multiprocessing:3").processes == 3

    def test_backend_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("multiprocessing"), MultiprocessingBackend)
        assert isinstance(resolve_backend("multiprocessing:3"), MultiprocessingBackend)

    def test_backend_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_and_malformed_specs_raise(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_backend("nope")
        # The concurrent.futures backend was folded into the multiprocessing pool.
        with pytest.raises(ValueError, match="unknown sweep backend 'futures'"):
            resolve_backend("futures")
        # The multi-node TCP work-queue backend was removed: one process pool remains.
        for spec in ("socket-queue", "socket-queue:127.0.0.1:7077"):
            with pytest.raises(
                ValueError, match="unknown sweep backend .* choose from: serial, multiprocessing"
            ):
                resolve_backend(spec)
        for name in BACKEND_NAMES:
            assert resolve_backend(name).name == name

    @pytest.mark.parametrize(
        "spec",
        ["multiprocessing:0", "multiprocessing:x"],
    )
    def test_out_of_range_specs_raise_naming_the_spec(self, spec):
        with pytest.raises(ValueError, match="invalid .* in backend spec") as excinfo:
            resolve_backend(spec)
        assert repr(spec) in str(excinfo.value)


# ----------------------------------------------------------------------
# The checkpoint journal itself
# ----------------------------------------------------------------------


class TestSweepJournal:
    def test_rows_round_trip_exactly(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        rows = [{"x": 1, "y": 0.1, "s": "text", "b": True, "none": None, "nan": float("nan")}]
        journal.record("id", 7, rows)
        journal.close()
        loaded = journal.load()[("id", 7)]
        assert loaded[0]["x"] == 1 and isinstance(loaded[0]["x"], int)
        assert loaded[0]["y"] == 0.1
        assert loaded[0]["s"] == "text" and loaded[0]["b"] is True
        assert loaded[0]["none"] is None
        assert math.isnan(loaded[0]["nan"])

    def test_numpy_scalars_become_python_scalars(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record("id", 1, [{"n": np.int64(3), "f": np.float64(0.25)}])
        journal.close()
        row = journal.load()[("id", 1)][0]
        assert row["n"] == 3 and isinstance(row["n"], int)
        assert row["f"] == 0.25 and isinstance(row["f"], float)

    def test_unserializable_rows_fail_loudly(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        with pytest.raises(TypeError, match="scalars"):
            journal.record("id", 1, [{"bad": object()}])
        journal.close()

    def test_load_skips_torn_and_garbage_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record("a", 1, [{"x": 1}])
        journal.record("b", 2, [{"x": 2}])
        journal.close()
        with open(path, "a") as handle:
            handle.write("not json\n")
            handle.write('["wrong", "shape"]\n')
            handle.write('{"scenario_id": "c", "seed": "not-int", "rows": []}\n')
            handle.write('{"scenario_id": "d", "seed": 4, "rows"')  # torn by a kill
        assert set(journal.load()) == {("a", 1), ("b", 2)}

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "absent.jsonl").load() == {}

    def test_compact_collapses_duplicates_last_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record("a", 1, [{"x": 1}])
        journal.record("b", 2, [{"x": 2}])
        journal.record("a", 1, [{"x": 10}])  # a resumed sweep re-recorded the point
        journal.record("a", 1, [{"x": 100}])
        journal.close()
        stats = journal.compact()
        assert stats == {"kept": 2, "dropped_duplicates": 2, "dropped_garbage": 0}
        # Last record wins -- exactly what load() already returned pre-compaction.
        loaded = journal.load()
        assert loaded[("a", 1)] == [{"x": 100}]
        assert loaded[("b", 2)] == [{"x": 2}]
        # One line per key, first-occurrence key order preserved.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["scenario_id"] == "a"
        assert json.loads(lines[1])["scenario_id"] == "b"

    def test_compact_drops_torn_and_garbage_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record("a", 1, [{"x": 1}])
        journal.close()
        with open(path, "a") as handle:
            handle.write("not json\n")
            handle.write('["wrong", "shape"]\n')
            handle.write('{"scenario_id": "c", "seed": "not-int", "rows": []}\n')
            handle.write('{"scenario_id": "d", "seed": 4, "rows"')  # torn by a kill
        before = journal.load()
        stats = journal.compact()
        assert stats == {"kept": 1, "dropped_duplicates": 0, "dropped_garbage": 4}
        # Compaction is a pure cleanup: load() sees exactly what it saw before.
        assert journal.load() == before
        # ...and the rewritten file is pristine JSONL (every line parses).
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_compact_round_trips_rows_byte_exactly(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record("p", 3, [{"y": 0.1, "nan": float("nan"), "none": None, "b": True}])
        journal.close()
        original_line = path.read_text()
        journal.compact()
        # Kept lines are rewritten verbatim: float formatting cannot drift.
        assert path.read_text() == original_line

    def test_compact_missing_file_is_a_noop(self, tmp_path):
        stats = SweepJournal(tmp_path / "absent.jsonl").compact()
        assert stats == {"kept": 0, "dropped_duplicates": 0, "dropped_garbage": 0}
        assert not (tmp_path / "absent.jsonl").exists()

    def test_compact_refuses_while_open_for_append(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record("a", 1, [{"x": 1}])
        with pytest.raises(RuntimeError, match="close"):
            journal.compact()
        journal.close()


# ----------------------------------------------------------------------
# Satellite: CLI parity (--backend/--checkpoint everywhere)
# ----------------------------------------------------------------------

_CLI_SWEEP = [
    "sweep",
    "--platforms",
    "aws_lambda_like",
    "--workloads",
    "minimal",
    "--rps",
    "1,2",
    "--duration-s",
    "5",
]


class TestCliParity:
    @pytest.mark.parametrize("command", ["sweep", "cluster", "backpressure"])
    def test_every_sweeping_subcommand_has_the_execution_flags(self, command):
        assert build_parser().parse_args([command]).backend == "serial"
        args = build_parser().parse_args(
            [command, "--backend", "multiprocessing:2", "--checkpoint", "x"]
        )
        assert args.backend == "multiprocessing:2"
        assert args.checkpoint == "x"
        for removed in ("--processes", "--unordered"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, removed, "2"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-worker", "--connect", "127.0.0.1:7077"])

    def test_cli_backends_write_byte_identical_csvs(self, tmp_path):
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert main(_CLI_SWEEP + ["--output", str(serial)]) == 0
        pool_flags = ["--backend", "multiprocessing:2"]
        assert main(_CLI_SWEEP + pool_flags + ["--output", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize("command", ["sweep", "cluster", "backpressure"])
    def test_malformed_backend_spec_exits_2_with_one_line(self, command, capsys):
        assert main([command, "--backend", "multiprocessing:0"]) == 2
        stderr = capsys.readouterr().err
        assert stderr.count("\n") == 1
        assert "'multiprocessing:0'" in stderr

    def test_cli_checkpoint_resume(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(_CLI_SWEEP + ["--checkpoint", str(journal), "--output", str(first)]) == 0
        assert main(_CLI_SWEEP + ["--checkpoint", str(journal), "--output", str(second)]) == 0
        assert "skipping 2 already-journaled points, running 0" in capsys.readouterr().err
        assert first.read_bytes() == second.read_bytes()

    def test_cli_failure_names_the_point(self, capsys):
        # Unknown names are rejected before any point runs; a non-positive
        # rate is only rejected by the point itself.
        assert main(["sweep", "--platforms", "gcp_run_like", "--workloads", "minimal", "--rps", "0"]) == 2
        stderr = capsys.readouterr().err
        assert "rps=0.0" in stderr  # the failing point, not a bare traceback

    def test_backpressure_cli_accepts_backend_and_checkpoint(self, tmp_path, capsys):
        journal = tmp_path / "bp.jsonl"
        args = [
            "backpressure",
            "--queue-depths",
            "0",
            "--policies",
            "best_fit",
            "--heterogeneity",
            "homogeneous",
            "--duration-s",
            "5",
            "--num-functions",
            "2",
            "--backend",
            "serial",
            "--checkpoint",
            str(journal),
        ]
        assert main(args) == 0
        assert main(args) == 0
        assert "skipping 1 already-journaled points, running 0" in capsys.readouterr().err

    def test_cli_compact_checkpoint(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        # A completed run journals 2 points; append a duplicate and a torn
        # line by hand so compaction has something to drop, then resume with
        # --compact-checkpoint: it compacts first, and the (now clean)
        # journal still skips every point.
        assert main(_CLI_SWEEP + ["--checkpoint", str(journal)]) == 0
        first_line = journal.read_text().splitlines()[0]
        with open(journal, "a") as handle:
            handle.write(first_line + "\n")
            handle.write('{"scenario_id": "torn", "seed": 9, "rows"')
        capsys.readouterr()
        assert main(_CLI_SWEEP + ["--checkpoint", str(journal), "--compact-checkpoint"]) == 0
        captured = capsys.readouterr()
        assert "kept 2 entries, dropped 1 duplicates and 1 garbage lines" in captured.out
        assert "skipping 2 already-journaled points, running 0" in captured.err
        assert len(journal.read_text().splitlines()) == 2

    def test_cli_compact_checkpoint_requires_checkpoint(self, capsys):
        assert main(["sweep", "--compact-checkpoint"]) == 2
        assert "--compact-checkpoint requires --checkpoint" in capsys.readouterr().err
