"""Fast tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_layers  # noqa: E402
import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("name", list(bw.WORKLOADS))
def test_tiny_size_reproduces_its_pins(name, workdir):
    fingerprint, problems = bw.pinned_fingerprint(name, workdir)
    assert problems == []
    assert bw.compare(bw.load_pins()[name], fingerprint) == []


@pytest.mark.parametrize("name", list(bw.WORKLOADS))
def test_a_wrong_pinned_value_fails_its_check(name, workdir):
    fingerprint, _ = bw.pinned_fingerprint(name, workdir)
    for key, value in bw.load_pins()[name].items():
        if isinstance(value, float) and value != 0.0:
            wrong = dict(bw.load_pins()[name])
            wrong[key] = value * (1 + 1e-6)
            assert bw.compare(wrong, fingerprint), f"{key} off by 1e-6 passed"
            # Summation-order noise stays inside the named tolerance.
            wrong[key] = value * (1 + bw.REL_TOL / 10)
            assert bw.compare(wrong, fingerprint) == []
            break
    counted = next(k for k, v in bw.load_pins()[name].items() if isinstance(v, int))
    wrong = dict(bw.load_pins()[name])
    wrong[counted] += 1
    assert bw.compare(wrong, fingerprint) == [
        f"{counted}: expected {wrong[counted]!r}, got {wrong[counted] - 1!r}"
    ]


def test_span_self_time_is_duration_minus_direct_children():
    recorder = bt.SpanRecorder()
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    for label, parent, start, end in (
        ("root:r", -1, 0.0, 10.0),
        ("x:a", 0, 1.0, 4.0),
        ("y:b", 1, 2.0, 3.0),
        ("x:c", 0, 5.0, 9.0),
    ):
        recorder.label_ids.append(recorder._label_id(label))
        recorder.parents.append(parent)
        recorder.starts.append(start)
        recorder.ends.append(end)
    rollup = recorder.rollup()
    assert rollup["root:r"] == {"spans": 1, "total_s": 10.0, "self_s": 3.0}
    assert rollup["x:a"]["self_s"] == 2.0
    assert rollup["y:b"]["self_s"] == 1.0
    layers = bt.by_layer(rollup)
    assert layers["x"] == {"spans": 2, "self_s": 6.0}
    assert sum(layer["self_s"] for layer in layers.values()) == 10.0


def test_wrapped_calls_nest_and_restore(workdir):
    from repro.sim.kernel import SimulationKernel

    original = SimulationKernel.__dict__["on"]
    recorder = bt.SpanRecorder()
    with bt.instrument(recorder):
        assert SimulationKernel.__dict__["on"] is not original
        kernel = SimulationKernel()
        fired = []
        kernel.on("tick", fired.append)
        kernel.schedule(0.0, "tick")
        assert kernel.run() == 1
    assert SimulationKernel.__dict__["on"] is original
    rollup = recorder.rollup()
    assert rollup["sim.kernel:SimulationKernel.run"]["spans"] == 1
    assert rollup["builtins:list.append"]["spans"] == 1
    assert recorder.tallies["sim.kernel.events"] == 1


@pytest.mark.parametrize("name", ["stream_steady", "saturated_fullstack", "trace_billing"])
def test_layer_self_times_account_for_the_traced_wall_time(name):
    plain = getattr(bw, name)(bw.PIN_SEED, "tiny").finish()
    recorder = bt.SpanRecorder()
    with bt.instrument(recorder):
        rep = recorder.wrap(bt.ROOT, getattr(bw, name))(bw.PIN_SEED, "tiny")
    rep.finish()
    # Tracing is invisible to the simulated outputs.
    assert bw.compare(plain.fingerprint, rep.fingerprint) == []
    rollup = recorder.rollup()
    wall = rollup[bt.ROOT]["total_s"]
    layers = bt.by_layer(rollup)
    assert sum(layer["self_s"] for layer in layers.values()) == pytest.approx(wall, rel=1e-9)
    residual = layers[bt.layer_of(bt.ROOT)]["self_s"] / wall
    assert residual < bench_layers.MAX_RESIDUAL_SHARE
    values = bench_layers.layer_values(rep, recorder)
    assert values["trace.residual_share"][0] == pytest.approx(residual)


def test_pooled_sweep_matches_the_serial_backend(workdir):
    _, reference = bw.serial_sweep(bw.PIN_SEED, "tiny", workdir)
    rep = bw.sweep_grid(bw.PIN_SEED, "tiny", workdir, reference).finish()
    assert rep.problems == []
    assert rep.items == rep.fingerprint["points"] == 8
    assert len(rep.workers["points"]) == 8
    assert rep.setup_s > 0 and rep.wall_s > 0
    broken = bw.sweep_grid(bw.PIN_SEED, "tiny", workdir, reference + b"x").finish()
    assert broken.problems == ["pooled CSV differs from the serial backend's"]


@pytest.mark.parametrize("trace, declared_as", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_declared_metric(trace, declared_as):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[declared_as]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace_billing", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_repeated_input_must_reproduce_its_first_repetition(workdir):
    import run

    runner = run.Runner("trace_billing", 5, workdir)
    try:
        for _ in range(run.INPUTS_PER_RUN + 1):
            runner.scaled_rep()
        assert (runner.attempted, runner.failed) == (run.INPUTS_PER_RUN + 1, 0)
        # The next repetition repeats input 1; a changed output must fail.
        runner.references[1]["records"] += 1
        runner.scaled_rep()
        assert runner.failed == 1 and runner.problems[0].startswith("records: expected")
    finally:
        runner.calibrator.close()


def test_calibrator_uses_and_stops_its_helpers():
    calibrator = bw.Calibrator(2)
    try:
        assert calibrator.calibrate() > 0
        processes = [process for _, process in calibrator._helpers]
    finally:
        calibrator.close()
    assert processes and not any(process.is_alive() for process in processes)


def _session_processes(session: int) -> List[str]:
    """Command lines of the live processes in ``session`` (Linux ``/proc``)."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except (OSError, ValueError):
            continue
        # Fields after the parenthesised name: state ppid pgrp session ...
        if int(stat.rsplit(")", 1)[1].split()[3]) == session:
            found.append(command)
    return found


def test_a_pooled_run_leaves_no_process_behind():
    run = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert run.wait(timeout=170) == 0
    # The run was its session's leader, so its session id is its pid.
    assert _session_processes(run.pid) == []


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
