"""Command-line interface: run reproduced experiments and print their tables.

Usage::

    repro-serverless-costs list
    repro-serverless-costs run figure2
    repro-serverless-costs run all --format markdown
    repro-serverless-costs trace --requests 50000 --output trace.csv
    repro-serverless-costs sweep --backend multiprocessing:4 --output sweep.csv
    repro-serverless-costs sweep --backend multiprocessing --checkpoint sweep.jsonl
    repro-serverless-costs cluster --fleet-sizes 8,16 --policies best_fit,worst_fit --output cluster.csv
    repro-serverless-costs cluster --trace-out cluster_trace.json --telemetry-out cluster_tel.csv
    repro-serverless-costs backpressure --feedback on --retry on --trace-out run_trace.json --profile-out run_profile.json
    repro-serverless-costs backpressure --queue-depths 0,8 --policies best_fit,cost_fit --output bp.csv
    repro-serverless-costs backpressure --feedback on --backend multiprocessing:4 --output bp_fb.csv
    repro-serverless-costs backpressure --feedback on --retry off,on --output bp_retry.csv
    repro-serverless-costs cluster --tenants 2 --tenant-on-exhausted deny --output tenants.csv
    repro-serverless-costs sweep --checkpoint sweep.jsonl --compact-checkpoint
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.analysis.experiments import EXPERIMENTS, list_experiments, run_experiment
from repro.core.report import render_table, to_markdown_table

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.results import ResultStore

__all__ = ["main", "build_parser"]

#: The values of every on/off switch (``--feedback``, ``--retry``).
_SWITCH = ("off", "on")


def _add_sweep_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Execution flags shared by every sweeping subcommand.

    ``sweep``, ``cluster`` and ``backpressure`` all fan a grid out through
    :func:`repro.sim.sweep.run_sweep`, so they expose the same knobs:
    execution backend and checkpoint journal.
    """
    parser.add_argument(
        "--backend",
        default="serial",
        help=(
            "Execution backend: serial (default) or multiprocessing[:N] (a pool of N "
            "workers; every core without N)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help=(
            "JSONL journal path: completed grid points are appended as they finish, "
            "and re-running with the same journal skips them (kill/resume-safe sweeps)"
        ),
    )
    parser.add_argument(
        "--compact-checkpoint",
        action="store_true",
        help=(
            "Before sweeping, rewrite the --checkpoint journal keeping only the last "
            "record per grid point (drops duplicate entries from repeated resumes and "
            "torn lines from kills; atomic replace)"
        ),
    )


def _compact_checkpoint_if_requested(args: "argparse.Namespace") -> Optional[int]:
    """Handle --compact-checkpoint; an exit code on misuse, else None."""
    if not getattr(args, "compact_checkpoint", False):
        return None
    if not args.checkpoint:
        print("--compact-checkpoint requires --checkpoint", file=sys.stderr)
        return 2
    from repro.sim.checkpoint import SweepJournal

    stats = SweepJournal(args.checkpoint).compact()
    print(
        f"compacted checkpoint {args.checkpoint}: kept {stats['kept']} entries, "
        f"dropped {stats['dropped_duplicates']} duplicates and "
        f"{stats['dropped_garbage']} garbage lines"
    )
    return None


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the cluster and backpressure subcommands.

    Both fan a grid of :func:`repro.analysis.scenario.run_cluster_scenario`
    points out through the sweep orchestrator, so everything but their own
    axes and fleet shape is one flag group (``--retry`` stays per command:
    cluster forwards it as a common param, backpressure sweeps it as an axis).
    """
    parser.add_argument(
        "--platform",
        default="gcp_run_like",
        help="Serving-platform preset every function runs on (see repro.platform.presets)",
    )
    parser.add_argument(
        "--billing",
        default="gcp_run_request",
        help="Billing model metered live (see repro.billing.catalog)",
    )
    parser.add_argument(
        "--rps", type=float, default=2.0, help="Request rate per function (requests/second)"
    )
    parser.add_argument(
        "--duration-s", type=float, default=30.0, help="Traffic duration per scenario (seconds)"
    )
    parser.add_argument(
        "--feedback",
        choices=_SWITCH,
        default="off",
        help=(
            "Close the state loop: fleet admission outcomes delay/fail serving "
            "(queued cold starts defer sandbox readiness, rejected ones fail their "
            "requests) and scheduler throttling stretches latency (default: off)"
        ),
    )
    parser.add_argument(
        "--tenants",
        default="off",
        help=(
            "Comma-separated tenancy modes (off, or an integer tenant count N): an "
            "integer meters every deployment's admission against N per-tenant credit "
            "accounts (round-robin assignment) and adds the per-tenant SLO/fairness "
            "columns; default: off, the pre-tenancy behaviour"
        ),
    )
    parser.add_argument(
        "--tenant-credit-capacity",
        type=float,
        default=50.0,
        help="Credit capacity of each tenant's token bucket (with --tenants N)",
    )
    parser.add_argument(
        "--tenant-credit-refill-per-s",
        type=float,
        default=2.0,
        help="Credit refill rate per simulated second (with --tenants N)",
    )
    parser.add_argument(
        "--tenant-on-exhausted",
        choices=("deny", "queue"),
        default="deny",
        help=(
            "What happens to arrivals of a credit-exhausted tenant: deny fails them "
            "with a typed RequestDenied, queue parks them until the bucket refills"
        ),
    )
    parser.add_argument(
        "--tenant-slo-latency-s",
        type=float,
        default=None,
        help=(
            "Per-tenant client-perceived latency SLO in seconds (drives the "
            "slo_attainment/goodput columns; default: no target)"
        ),
    )
    _add_sweep_execution_flags(parser)
    parser.add_argument("--seed", type=int, default=2026, help="Base seed for per-run seeds")
    parser.add_argument("--output", help="Also write the result rows to this CSV path")
    parser.add_argument(
        "--trace-out",
        help=(
            "Record the first grid point's request spans to this path "
            "(.jsonl for span lines, else Chrome trace JSON); rows are unchanged"
        ),
    )
    parser.add_argument(
        "--telemetry-out",
        help="Record the first grid point's sampled time-series to this CSV; rows are unchanged",
    )
    parser.add_argument(
        "--profile-out",
        help="Record the first grid point's kernel profile to this JSON path; rows are unchanged",
    )
    parser.add_argument(
        "--format", choices=("text", "markdown"), default="text", help="Output table format"
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-serverless-costs",
        description=(
            "Reproduction of 'Demystifying Serverless Costs on Public Platforms' (EuroSys 2026): "
            "run the per-figure/per-table experiments against the simulation substrates."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    list_parser = subparsers.add_parser("list", help="List reproduced experiments")
    list_parser.set_defaults(command="list")

    run_parser = subparsers.add_parser("run", help="Run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="Experiment id (see 'list') or 'all'")
    run_parser.add_argument(
        "--format", choices=("text", "markdown"), default="text", help="Output table format"
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="Generate a synthetic Huawei-like request trace CSV",
        description=(
            "Generate a synthetic Huawei-like request trace CSV (requires --output).  "
            "To record an execution trace of a simulated run, pass --trace-out / "
            "--telemetry-out / --profile-out to cluster or backpressure."
        ),
    )
    trace_parser.add_argument("--requests", type=int, default=50_000, help="Number of requests")
    trace_parser.add_argument("--functions", type=int, default=200, help="Number of functions")
    trace_parser.add_argument("--seed", type=int, default=2026, help="PRNG seed")
    trace_parser.add_argument("--output", help="Output CSV path (required)")

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="Run a (platform x workload x rps) scenario grid across worker processes",
        description=(
            "Fan a scenario grid out over the repro.sim sweep orchestrator.  Every grid "
            "point gets a reproducible seed derived from --seed and the point's identity, "
            "so the same command always produces the same rows, sequentially or parallel."
        ),
    )
    sweep_parser.add_argument(
        "--platforms",
        default="aws_lambda_like,gcp_run_like",
        help="Comma-separated platform preset names (see repro.platform.presets)",
    )
    sweep_parser.add_argument(
        "--workloads",
        default="pyaes,io_bound",
        help="Comma-separated workload catalog names (see repro.workloads.functions)",
    )
    sweep_parser.add_argument(
        "--rps", default="1,5,15", help="Comma-separated request rates (requests/second)"
    )
    sweep_parser.add_argument(
        "--duration-s", type=float, default=60.0, help="Traffic duration per scenario (seconds)"
    )
    sweep_parser.add_argument(
        "--arrival-process",
        choices=("constant", "poisson"),
        default="constant",
        help="Arrival process for every scenario",
    )
    _add_sweep_execution_flags(sweep_parser)
    sweep_parser.add_argument("--seed", type=int, default=2026, help="Base seed for per-run seeds")
    sweep_parser.add_argument("--output", help="Also write the result rows to this CSV path")
    sweep_parser.add_argument(
        "--format", choices=("text", "markdown"), default="text", help="Output table format"
    )

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="Co-simulate a host fleet: fleet size x placement policy x keep-alive sweep",
        description=(
            "Sweep cluster co-simulations (every function's platform simulator, the "
            "event-driven fleet, and the live cost meter in one event loop) over a "
            "(fleet size x placement policy x keep-alive) grid.  Seeds derive from "
            "--seed and each grid point's identity, so sequential and parallel runs "
            "produce identical rows."
        ),
    )
    cluster_parser.add_argument(
        "--fleet-sizes",
        default="4,8",
        help="Comma-separated numbers of functions deployed into the cluster",
    )
    cluster_parser.add_argument(
        "--policies",
        default="first_fit,best_fit,worst_fit",
        help="Comma-separated placement policies (first_fit, best_fit, worst_fit, cost_fit)",
    )
    cluster_parser.add_argument(
        "--keep-alive-s",
        default="60",
        help="Comma-separated keep-alive windows in seconds (rescales the preset's window)",
    )
    cluster_parser.add_argument(
        "--host-vcpus", type=float, default=16.0, help="vCPU capacity of each host"
    )
    cluster_parser.add_argument(
        "--host-memory-gb", type=float, default=64.0, help="Memory capacity of each host (GB)"
    )
    cluster_parser.add_argument(
        "--retry",
        choices=_SWITCH,
        default="off",
        help=(
            "Client retry loop: failed requests are re-injected with exponential "
            "backoff and re-load the fleet (needs --feedback on to have any effect; "
            "default: off, failures stay terminal)"
        ),
    )
    _add_cluster_flags(cluster_parser)

    backpressure_parser = subparsers.add_parser(
        "backpressure",
        help="Sweep admission backpressure: queue depth x placement policy x heterogeneity",
        description=(
            "Co-simulate capacity-bound fleets with admission backpressure: unplaceable "
            "sandboxes enter a bounded queue and are retried on eviction instead of being "
            "dropped.  Each grid point runs scheduler + platform + fleet + billing in one "
            "kernel; seeds derive from --seed and each grid point's identity, so "
            "sequential and parallel runs produce identical rows."
        ),
    )
    backpressure_parser.add_argument(
        "--queue-depths",
        default="0,4,32",
        help="Comma-separated admission-queue bounds (0 disables queueing)",
    )
    backpressure_parser.add_argument(
        "--policies",
        default="best_fit,cost_fit",
        help="Comma-separated placement policies (first_fit, best_fit, worst_fit, cost_fit)",
    )
    backpressure_parser.add_argument(
        "--heterogeneity",
        default="homogeneous,two_tier",
        help="Comma-separated fleet shapes (homogeneous, two_tier)",
    )
    backpressure_parser.add_argument(
        "--queue-discipline",
        choices=("fifo", "smallest_first"),
        default="fifo",
        help="Order in which queued sandboxes are retried on capacity release",
    )
    backpressure_parser.add_argument(
        "--max-hosts", type=int, default=2, help="Host cap per fleet (small saturates the fleet)"
    )
    backpressure_parser.add_argument(
        "--num-functions", type=int, default=6, help="Functions deployed into the cluster"
    )
    backpressure_parser.add_argument(
        "--no-scheduler",
        action="store_true",
        help="Skip the co-simulated CPU-bandwidth scheduler engine",
    )
    backpressure_parser.add_argument(
        "--retry",
        default="off",
        help=(
            "Comma-separated client-retry modes (off, on).  'on' re-injects failed "
            "requests with exponential backoff so they re-load the fleet (needs "
            "--feedback on to have any effect); 'off,on' sweeps the retry axis and "
            "the retry_amplification column compares the twin rows"
        ),
    )
    _add_cluster_flags(backpressure_parser)

    return parser


def _warn_inert_retry(feedback: str, retry_active: bool) -> None:
    """Retries only engage when the feedback loop can fail requests.

    With ``feedback="off"`` nothing ever fails, so ``--retry on`` would run
    to completion reporting all-zero retry columns that read as "retries had
    no effect" rather than "retries never engaged" -- warn loudly instead of
    leaving the user to decode that.
    """
    if retry_active and feedback == "off":
        print(
            "warning: --retry on has no effect with --feedback off "
            "(requests only fail in the closed loop); add --feedback on",
            file=sys.stderr,
        )


def _obs_first_point_extra(args: "argparse.Namespace"):
    """Artifact params for the first grid point, from the ``--*-out`` flags.

    Returns ``None`` when no ``--trace-out``/``--telemetry-out``/``--profile-out``
    was given (no obs attached anywhere); otherwise prints where the
    recording lands, because the artifacts cover one representative point,
    not the whole grid.
    """
    extra = {
        key: getattr(args, key)
        for key in ("trace_out", "telemetry_out", "profile_out")
        if getattr(args, key)
    }
    if not extra:
        return None
    print(
        "recording observability artifacts for the first grid point: "
        + ", ".join(f"{key}={value}" for key, value in sorted(extra.items())),
        file=sys.stderr,
    )
    return extra


def _print_invalid(flag: str, value: str, allowed: Sequence[str]) -> None:
    print(f"invalid {flag} value {value!r}; choose from: {', '.join(allowed)}", file=sys.stderr)


def _check_grid_values(*checks: Tuple[str, List[str], Sequence[str]]) -> bool:
    """Check comma-list flag values before any grid point runs.

    Each check is ``(flag, values, allowed)``; the first value outside its
    ``allowed`` set is reported as one line naming the flag, and the result
    is ``False``.
    """
    for flag, values, allowed in checks:
        for value in values:
            if value not in allowed:
                _print_invalid(flag, value, allowed)
                return False
    return True


def _placement_policies() -> List[str]:
    from repro.cluster.placement import PlacementPolicy

    return [policy.value for policy in PlacementPolicy]


def _platform_presets() -> List[str]:
    from repro.platform.presets import PLATFORM_PRESETS

    return list(PLATFORM_PRESETS)


def _cmd_list() -> int:
    rows = [
        {"experiment": e.experiment_id, "title": e.title, "modules": e.modules}
        for e in EXPERIMENTS.values()
    ]
    print(render_table(rows, columns=["experiment", "title", "modules"]))
    return 0


def _cmd_run(experiment: str, output_format: str) -> int:
    ids = list_experiments() if experiment == "all" else [experiment]
    for experiment_id in ids:
        try:
            rows = run_experiment(experiment_id)
        except KeyError as error:
            from repro.sim.backends import _error_text

            print(_error_text(error), file=sys.stderr)
            return 2
        title = f"== {experiment_id}: {EXPERIMENTS[experiment_id].title} =="
        print(title)
        if output_format == "markdown":
            print(to_markdown_table(rows))
        else:
            print(render_table(rows))
        print()
    return 0


def _cmd_trace(args: "argparse.Namespace") -> int:
    if not args.output:
        print("trace generation needs --output", file=sys.stderr)
        return 2

    from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
    from repro.traces.io import write_requests_csv

    config = TraceGeneratorConfig(
        num_requests=args.requests, num_functions=args.functions, seed=args.seed
    )
    trace = TraceGenerator(config).generate()
    count = write_requests_csv(args.output, trace.requests)
    print(f"wrote {count} requests to {args.output}")
    return 0


def _run_and_print(
    args: "argparse.Namespace", command: str, run: "Callable[[], ResultStore]"
) -> int:
    """Run a sweep, then print its rows as a table (and CSV with --output)."""
    from repro.sim.backends import SweepPointError, _error_text

    try:
        store = run()
    except (KeyError, ValueError, SweepPointError) as error:
        print(_error_text(error), file=sys.stderr)
        return 2
    print(f"== {command}: {len(store)} scenarios (base seed {args.seed}) ==")
    if args.format == "markdown":
        print(to_markdown_table(store.rows))
    else:
        print(render_table(store.rows))
    if args.output:
        written = store.to_csv(args.output)
        print(f"wrote {written} rows to {args.output}")
    return 0


def _cmd_sweep(args: "argparse.Namespace") -> int:
    from repro.sim.sweep import build_grid, run_sweep

    platforms = [name.strip() for name in args.platforms.split(",") if name.strip()]
    workloads = [name.strip() for name in args.workloads.split(",") if name.strip()]
    try:
        rates = [float(value) for value in args.rps.split(",") if value.strip()]
    except ValueError:
        print(f"invalid --rps list: {args.rps!r}", file=sys.stderr)
        return 2
    if not platforms or not workloads or not rates:
        print("sweep needs at least one platform, workload, and rps value", file=sys.stderr)
        return 2
    from repro.workloads.functions import WORKLOAD_CATALOG

    if not _check_grid_values(
        ("--platforms", platforms, _platform_presets()),
        ("--workloads", workloads, list(WORKLOAD_CATALOG)),
    ):
        return 2
    code = _compact_checkpoint_if_requested(args)
    if code is not None:
        return code
    scenarios = build_grid(
        runner="repro.sim.sweep:platform_point",
        axes={"platform": platforms, "workload": workloads, "rps": rates},
        common={"duration_s": args.duration_s, "arrival_process": args.arrival_process},
        base_seed=args.seed,
    )
    return _run_and_print(
        args,
        "sweep",
        lambda: run_sweep(scenarios, backend=args.backend, checkpoint=args.checkpoint),
    )


def _run_cluster_grid(
    args: "argparse.Namespace",
    command: str,
    sweep: "Callable[..., ResultStore]",
    axes: Dict[str, List[object]],
    common: Dict[str, object],
    retry_on: bool,
) -> int:
    """The shared tail of the cluster and backpressure subcommands.

    Adds the :func:`_add_cluster_flags` params to the command's own ``axes``
    and ``common``, gates the tenancy axis, and runs ``sweep`` (a
    ``*_sweep`` function of :mod:`repro.analysis`) with the execution flags.
    """
    tenants: List[object] = []
    for item in filter(None, (item.strip() for item in args.tenants.split(","))):
        if item != "off" and not (item.isdecimal() and int(item) >= 1):
            _print_invalid("--tenants", item, ("off", "an integer >= 1"))
            return 2
        tenants.append(item if item == "off" else int(item))
    from repro.billing.catalog import PlatformName

    if not _check_grid_values(
        ("--platform", [args.platform], _platform_presets()),
        ("--billing", [args.billing], [name.value for name in PlatformName]),
    ):
        return 2
    code = _compact_checkpoint_if_requested(args)
    if code is not None:
        return code
    common.update(
        platform=args.platform,
        billing=args.billing,
        rps_per_function=args.rps,
        duration_s=args.duration_s,
        feedback=args.feedback,
    )
    if tenants and tenants != ["off"]:
        # Same gating contract as retry: the axis (and the tenant knobs) only
        # exist when tenancy is requested, so default CSVs stay byte-identical.
        axes["tenants"] = tenants
        common.update(
            tenant_credit_capacity=args.tenant_credit_capacity,
            tenant_credit_refill_per_s=args.tenant_credit_refill_per_s,
            tenant_on_exhausted=args.tenant_on_exhausted,
        )
        if args.tenant_slo_latency_s is not None:
            common["tenant_slo_latency_s"] = args.tenant_slo_latency_s
    _warn_inert_retry(args.feedback, retry_on)
    return _run_and_print(
        args,
        command,
        lambda: sweep(
            axes=axes,
            common=common,
            base_seed=args.seed,
            first_point_extra=_obs_first_point_extra(args),
            backend=args.backend,
            checkpoint=args.checkpoint,
        ),
    )


def _cmd_cluster(args: "argparse.Namespace") -> int:
    from repro.analysis.cluster_costs import cluster_cost_sweep

    try:
        fleet_sizes = [int(value) for value in args.fleet_sizes.split(",") if value.strip()]
        keep_alive = [float(value) for value in args.keep_alive_s.split(",") if value.strip()]
    except ValueError:
        print(
            f"invalid --fleet-sizes/--keep-alive-s list: {args.fleet_sizes!r} / {args.keep_alive_s!r}",
            file=sys.stderr,
        )
        return 2
    policies = [name.strip() for name in args.policies.split(",") if name.strip()]
    if not fleet_sizes or not policies or not keep_alive:
        print("cluster needs at least one fleet size, policy, and keep-alive value", file=sys.stderr)
        return 2
    if not _check_grid_values(("--policies", policies, _placement_policies())):
        return 2
    common: Dict[str, object] = {
        "host_vcpus": args.host_vcpus,
        "host_memory_gb": args.host_memory_gb,
    }
    if args.retry != "off":
        # Only forward an active retry mode: without the param the rows (and
        # therefore default CSVs) stay byte-identical to the pre-retry CLI.
        common["retry"] = args.retry
    axes: Dict[str, List[object]] = {
        "num_functions": fleet_sizes,
        "placement_policy": policies,
        "keep_alive_s": keep_alive,
    }
    return _run_cluster_grid(
        args, "cluster", cluster_cost_sweep, axes, common, retry_on=args.retry == "on"
    )


def _cmd_backpressure(args: "argparse.Namespace") -> int:
    from repro.analysis.backpressure import HETEROGENEITIES, backpressure_sweep

    try:
        queue_depths = [int(value) for value in args.queue_depths.split(",") if value.strip()]
    except ValueError:
        print(f"invalid --queue-depths list: {args.queue_depths!r}", file=sys.stderr)
        return 2
    policies = [name.strip() for name in args.policies.split(",") if name.strip()]
    heterogeneity = [name.strip() for name in args.heterogeneity.split(",") if name.strip()]
    retries = [name.strip() for name in args.retry.split(",") if name.strip()]
    if not queue_depths or not policies or not heterogeneity or not retries:
        print(
            "backpressure needs at least one queue depth, policy, heterogeneity and retry value",
            file=sys.stderr,
        )
        return 2
    if not _check_grid_values(
        ("--policies", policies, _placement_policies()),
        ("--heterogeneity", heterogeneity, HETEROGENEITIES),
        ("--retry", retries, _SWITCH),
    ):
        return 2
    axes: Dict[str, List[object]] = {
        "queue_depth": queue_depths,
        "placement_policy": policies,
        "heterogeneity": heterogeneity,
    }
    if retries != ["off"]:
        # An active retry mode (or a multi-value list) becomes a sweep axis;
        # the bare default keeps rows byte-identical to the pre-retry CLI.
        axes["retry"] = retries
    common: Dict[str, object] = {
        "queue_discipline": args.queue_discipline,
        "max_hosts": args.max_hosts,
        "num_functions": args.num_functions,
        "with_scheduler": not args.no_scheduler,
    }
    return _run_cluster_grid(
        args, "backpressure", backpressure_sweep, axes, common, retry_on="on" in retries
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.format)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "backpressure":
        return _cmd_backpressure(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
