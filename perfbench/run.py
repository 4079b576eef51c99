#!/usr/bin/env python3
"""Benchmark entry point: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload stream_steady --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the simulator is imported from
``src/``; nothing is installed).  ``--trace 0`` repeats the workload with no
observers attached and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions (plus an observed one on
``stream_steady``) and reports the per-layer metrics.  Before the timed
loop, every run checks the workload's ``tiny`` size at the pinned seed
against ``pins.json``; every repetition is checked too.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
``{"report": ...}`` object with everything else (run metadata, sample
counts, tail latencies, the per-layer self-time table).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for sweep journals and CSVs, inside the checkout.
WORK_ROOT = ROOT / ".perfbench_tmp"
#: Inputs (derived from ``--seed``) a run cycles through; repeats of an
#: input must reproduce its first repetition exactly.
INPUTS_PER_RUN = 4
#: Repetitions every run makes at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fresh interpreters started per run (about) to time start-up and imports.
IMPORT_PROBES = 6
#: Prints the monotonic clock once every layer is imported.
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import bench_workloads; "
    "bench_workloads.import_layers(); print(repr(time.perf_counter()))"
)


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _metadata(name: str, config: Dict[str, object], seed: int) -> Dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        version = described.stdout.strip() or "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        version = "unavailable (no git)"
    return {
        "workload": name,
        "seed": seed,
        "config": config,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_describe": version,
    }


class Runner:
    """Runs one workload's repetitions and keeps the check tally."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        import bench_workloads as bw

        self.bw = bw
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Input index -> fingerprint of its first repetition.
        self.references: Dict[int, Dict[str, object]] = {}
        self.reference_csv = b""
        # Single-process workloads cycle through a few inputs derived from
        # the seed, so a run's medians do not hinge on one input's mix of
        # cheap and expensive requests.  The pooled sweep keeps one input:
        # each input needs its own serial reference CSV.
        self.inputs = 1 if name == "sweep_grid" else INPUTS_PER_RUN
        self.turn = 0
        # The pooled sweep runs on several CPUs, and they change speed
        # independently, so its repetitions are calibrated on all of them.
        self.calibrator = bw.Calibrator(bw.sweep_workers() if name == "sweep_grid" else 1)

    def scaled(self, timed):
        """``(timed(), factor)``: the factor scales its times to the reference speed.

        Host speed is measured by calibrations just before and just after,
        on every CPU the repetition uses.
        """
        before = self.calibrator.calibrate()
        result = timed()
        after = self.calibrator.calibrate()
        return result, self.bw.REFERENCE_CALIBRATION_S / ((before + after) / 2)

    def record_check(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    def rep(self, obs=None):
        """The next full-size repetition in the input cycle (not yet finished)."""
        seed = self.seed * self.inputs + self.turn % self.inputs
        return self.bw.repetition(
            self.name, seed, "full", self.workdir, self.reference_csv, obs=obs
        )

    def check_pinned(self) -> None:
        """The tiny size at the pinned seed must reproduce ``pins.json``."""
        bw = self.bw
        fingerprint, problems = bw.pinned_fingerprint(self.name, self.workdir)
        pinned = bw.load_pins().get(self.name)
        if pinned is None:
            problems = problems + ["no pinned fingerprint"]
        else:
            problems = problems + bw.compare(pinned, fingerprint)
        self.record_check([f"pinned: {p}" for p in problems])
        if self.name == "sweep_grid":
            # Every pooled repetition must write the serial backend's bytes.
            _, self.reference_csv = bw.serial_sweep(self.seed * self.inputs, "full",
                                                    self.workdir)

    def startup_s(self) -> float:
        """Scaled time from spawning an interpreter to every layer imported."""

        def probe() -> float:
            spawned = perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(SRC)],
                capture_output=True, text=True, check=True, timeout=120,
            )
            # perf_counter is the system-wide monotonic clock on Linux.
            return float(done.stdout) - spawned

        elapsed, factor = self.scaled(probe)
        return elapsed * factor

    def scaled_rep(self, obs=None):
        """One checked full-size repetition and its host-speed factor."""
        rep, factor = self.scaled(lambda: self.rep(obs=obs))
        return self.checked_rep(rep, obs=obs), factor

    def checked_rep(self, rep, obs=None):
        """Finish ``rep``; check its invariants and its input's first repetition."""
        rep.finish()
        problems = list(rep.problems)
        fingerprint = rep.fingerprint
        expected = self.references.get(self.turn % self.inputs)
        if expected is None:
            if obs is None:
                self.references[self.turn % self.inputs] = fingerprint
        else:
            if obs is not None:
                # The telemetry sampler's ticks are kernel events of their own.
                expected = {k: v for k, v in expected.items() if k != "events"}
                fingerprint = {k: v for k, v in fingerprint.items() if k != "events"}
            problems += self.bw.compare(expected, fingerprint)
        self.turn += 1
        self.record_check(problems)
        return rep


def measure(runner: Runner, seconds: float) -> Dict[str, object]:
    """Untraced repetitions for ``seconds``; end-to-end metrics.

    Times are scaled to the reference host speed (``Runner.scaled``); the
    unscaled medians are kept in the report.
    """
    reps, scales, startups = [], [], []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - start < seconds:
        rep, factor = runner.scaled_rep()
        reps.append(rep)
        scales.append(factor)
        # Start-up probes are spread over the run rather than bunched, so a
        # slow spell of the host cannot catch all of them.
        due = (perf_counter() - start) * IMPORT_PROBES / max(seconds, 1e-9)
        if len(startups) < min(len(reps), MIN_REPS) or len(startups) < due:
            startups.append(runner.startup_s())
    startup_s = statistics.median(startups)
    walls = [r.wall_s * k for r, k in zip(reps, scales)]
    worker_peak_kb = max((r.workers.get("peak_rss_kb", 0) for r in reps), default=0)
    main_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "samples": len(reps),
        "throughput_per_s": statistics.median(r.items / w for r, w in zip(reps, walls)),
        "wall_s": statistics.median(walls),
        "wall_p90_s": _percentile(walls, 90),
        "startup_s": startup_s,
        "startup_probes": len(startups),
        "setup_s": startup_s + statistics.median(r.setup_s * k for r, k in zip(reps, scales)),
        "peak_rss_mb": (main_peak_kb + worker_peak_kb) / 1024.0,
        "items_per_rep": reps[-1].items,
        "host_speed": statistics.median(scales),
        "unscaled": {
            "wall_s": statistics.median(r.wall_s for r in reps),
            "build_s": statistics.median(r.setup_s for r in reps),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-pins", action="store_true",
        help="rewrite pins.json from the current simulator (after an intended model change)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_workloads as bw

    if args.write_pins:
        WORK_ROOT.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=WORK_ROOT)
        try:
            bw.write_pins(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            WORK_ROOT.rmdir()
        print(f"wrote {bw.PINS_PATH}")
        return 0

    if args.workload not in bw.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(bw.WORKLOADS)})", file=sys.stderr)
        return 2
    bw.import_layers()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    runner = Runner(args.workload, args.seed, workdir)
    try:
        runner.check_pinned()
        if args.trace:
            import bench_layers

            report = bench_layers.run(runner, args.seconds, MIN_REPS)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in report.pop("per_layer").items()}
        else:
            report = measure(runner, args.seconds)
            metrics = {
                "throughput_per_s": {"value": report["throughput_per_s"], "unit": "1/s"},
                "wall_s": {"value": report["wall_s"], "unit": "s"},
                "setup_s": {"value": report["setup_s"], "unit": "s"},
                "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            }
    finally:
        runner.calibrator.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    report["error_rate"] = runner.failed / runner.attempted
    report["problems"] = runner.problems
    report["metadata"] = _metadata(args.workload, bw.WORKLOADS[args.workload]("full"), args.seed)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
