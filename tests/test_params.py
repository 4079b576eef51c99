"""The typed params boundary: every grid point parses into one frozen dataclass.

Each runner's params keys, defaults and allowed values are the fields of its
params type (:mod:`repro.sim.params`).  These tests pin the boundary's
contract for every key family -- the shared cluster keys, the ``retry_*``,
``tenant_*`` and obs sections, each runner's own axes and
:func:`~repro.sim.sweep.platform_point` -- plus the structural rule that the
converted modules read no raw params.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
import typing

import pytest

from repro.analysis.backpressure import (
    BackpressurePointParams,
    backpressure_point,
    backpressure_sweep,
)
from repro.analysis.cluster_costs import ClusterPointParams, cluster_cost_sweep
from repro.analysis.scenario import ClusterScenarioParams
from repro.platform.presets import PLATFORM_PRESETS, get_platform_preset
from repro.sim.params import ScenarioParamError, choices_of, from_mapping
from repro.sim.sweep import PlatformPointParams, build_grid, platform_point, run_sweep
from repro.tenancy.model import TenantConfig
from repro.workloads.functions import get_workload

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

BACKPRESSURE = {"queue_depth": 0, "placement_policy": "best_fit", "heterogeneity": "homogeneous"}
CLUSTER = {"num_functions": 2, "placement_policy": "best_fit", "keep_alive_s": 60.0}
PLATFORM = {"platform": "aws_lambda_like", "workload": "minimal"}

#: (params type, the required keys) of every runner's params type.
RUNNER_TYPES = [
    (BackpressurePointParams, BACKPRESSURE),
    (ClusterPointParams, CLUSTER),
    (PlatformPointParams, PLATFORM),
]


def _flatten(params: object) -> typing.Dict[str, object]:
    """A parsed params object back as its flat key -> value mapping."""
    flat: typing.Dict[str, object] = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            flat.update(_flatten(value))
        else:
            flat[f.name] = value
    return flat


# ----------------------------------------------------------------------
# Unknown keys name the closest valid key
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "params_type, base, typo, meant",
    [
        (BackpressurePointParams, BACKPRESSURE, "rps_per_fnction", "rps_per_function"),
        (ClusterPointParams, CLUSTER, "sample_intervl_s", "sample_interval_s"),
        (BackpressurePointParams, BACKPRESSURE, "retry_max_atempts", "retry_max_attempts"),
        (ClusterPointParams, CLUSTER, "tenant_credit_capacty", "tenant_credit_capacity"),
        (BackpressurePointParams, BACKPRESSURE, "telemetry_ot", "telemetry_out"),
        (BackpressurePointParams, BACKPRESSURE, "queue_dicipline", "queue_discipline"),
        (ClusterPointParams, CLUSTER, "host_vcpu", "host_vcpus"),
        (PlatformPointParams, PLATFORM, "alloc_memory_g", "alloc_memory_gb"),
    ],
    ids=["shared", "shared-cluster", "retry", "tenant", "obs", "backpressure", "cluster",
         "platform_point"],
)
def test_a_typo_names_the_closest_key(params_type, base, typo, meant):
    with pytest.raises(ScenarioParamError, match=f"did you mean '{meant}'") as excinfo:
        from_mapping(params_type, {**base, typo: 1})
    assert excinfo.value.key == typo
    assert meant in excinfo.value.allowed


def test_the_backpressure_typo_repro_no_longer_passes_silently():
    with pytest.raises(ScenarioParamError, match="rps_per_function"):
        backpressure_point({**BACKPRESSURE, "rps_per_fnction": 500, "retyr": "on"}, 1)


# ----------------------------------------------------------------------
# Bad values list what the key accepts
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "params_type, base, key, value, allowed",
    [
        (BackpressurePointParams, BACKPRESSURE, "platform", "nope", tuple(PLATFORM_PRESETS)),
        (ClusterPointParams, CLUSTER, "billing", "nope", ("aws_lambda", "gcp_run_request")),
        (ClusterPointParams, CLUSTER, "workload", "nope", ("minimal", "pyaes")),
        (ClusterPointParams, CLUSTER, "arrival_process", "bursty", ("constant", "poisson")),
        (BackpressurePointParams, BACKPRESSURE, "feedback", True, ("off", "on")),
        (BackpressurePointParams, BACKPRESSURE, "retry", "maybe", ("off", "on")),
        (ClusterPointParams, CLUSTER, "tenant_on_exhausted", "drop", ("deny", "queue")),
        (ClusterPointParams, CLUSTER, "tenants", 0, ("off", "an integer >= 1")),
        (ClusterPointParams, CLUSTER, "tenants", "some", ("off", "an integer >= 1")),
        (BackpressurePointParams, BACKPRESSURE, "placement_policy", "nope", ("cost_fit",)),
        (BackpressurePointParams, BACKPRESSURE, "heterogeneity", "flat", ("two_tier",)),
        (BackpressurePointParams, BACKPRESSURE, "queue_discipline", "lifo", ("smallest_first",)),
        (BackpressurePointParams, BACKPRESSURE, "queue_depth", 2.5, ("int",)),
        (ClusterPointParams, CLUSTER, "placement_policy", "nope", ("worst_fit",)),
        (ClusterPointParams, CLUSTER, "retry_jitter", "lots", ("float",)),
        (PlatformPointParams, PLATFORM, "platform", "nope", tuple(PLATFORM_PRESETS)),
        (PlatformPointParams, PLATFORM, "workload", "nope", ("io_bound",)),
        (PlatformPointParams, PLATFORM, "arrival_process", "bursty", ("poisson",)),
    ],
)
def test_a_bad_value_lists_the_allowed_values(params_type, base, key, value, allowed):
    with pytest.raises(ScenarioParamError) as excinfo:
        from_mapping(params_type, {**base, key: value})
    error = excinfo.value
    assert (error.key, error.value) == (key, value)
    assert set(allowed) <= set(error.allowed)
    assert f"invalid {key} value {value!r}; choose from: " in str(error)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_with_scheduler_takes_only_a_real_bool(value):
    with pytest.raises(ScenarioParamError, match="with_scheduler"):
        from_mapping(BackpressurePointParams, {**BACKPRESSURE, "with_scheduler": value})
    off = from_mapping(BackpressurePointParams, {**BACKPRESSURE, "with_scheduler": False})
    assert off.with_scheduler is False


def test_an_unknown_platform_is_a_param_error_not_a_key_error():
    with pytest.raises(ScenarioParamError) as excinfo:
        from_mapping(ClusterScenarioParams, {"platform": "nope"})
    assert not isinstance(excinfo.value, KeyError)
    assert isinstance(excinfo.value, ValueError)  # existing ValueError callers keep working


@pytest.mark.parametrize("params_type, base", RUNNER_TYPES)
def test_a_missing_axis_names_it(params_type, base):
    first = next(iter(base))
    with pytest.raises(ScenarioParamError, match=f"missing required param '{first}'"):
        from_mapping(params_type, {key: value for key, value in base.items() if key != first})


# ----------------------------------------------------------------------
# Defaults, the absent-vs-off contract and object stand-ins
# ----------------------------------------------------------------------


def test_absent_retry_and_tenants_differ_from_off():
    absent = from_mapping(ClusterScenarioParams, {})
    assert absent.retries.retry is None and absent.tenancy.tenants is None
    off = from_mapping(ClusterScenarioParams, {"retry": "off", "tenants": "off"})
    assert (off.retries.retry, off.tenancy.tenants) == ("off", "off")
    for parsed in (absent, off):
        assert parsed.retries.policy() is None and parsed.tenancy.configs() is None


def test_a_tenant_count_builds_that_many_tenants():
    tenancy = from_mapping(
        ClusterScenarioParams,
        {"tenants": "2", "tenant_on_exhausted": "queue", "tenant_slo_latency_s": 2},
    ).tenancy
    assert tenancy.tenants == 2
    assert tenancy.configs() == [
        TenantConfig(f"tenant-0{index}", 50.0, 2.0, "queue", 2.0) for index in (0, 1)
    ]


@pytest.mark.parametrize("key, value", [("tenant_request_cost", 2.0), ("tenant_max_queued", 3)])
def test_removed_tenant_knobs_are_unknown_keys(key, value):
    # Every admission spends one credit, and a credit queue is unbounded.
    with pytest.raises(ScenarioParamError, match=key):
        from_mapping(ClusterScenarioParams, {"tenants": 2, key: value})


def test_obs_section_attaches_only_when_asked(tmp_path):
    assert from_mapping(ClusterScenarioParams, {}).obs.observability() is None
    obs = from_mapping(ClusterScenarioParams, {"trace_out": tmp_path / "t.json"}).obs
    assert obs.trace_out == str(tmp_path / "t.json")
    assert obs.observability() is not None


def test_platform_point_takes_names_or_config_objects():
    config, spec = get_platform_preset("gcp_run_like"), get_workload("io_bound")
    point = from_mapping(PlatformPointParams, {"platform": config, "workload": spec})
    assert point.platform is config and point.workload is spec
    by_object = platform_point({"platform": config, "workload": spec, "duration_s": 5.0}, 3)
    by_name = platform_point(
        {"platform": "gcp_run_like", "workload": "io_bound", "duration_s": 5.0}, 3
    )
    assert by_object == by_name


def test_argparse_choices_read_the_same_metadata():
    assert choices_of(BackpressurePointParams, "queue_discipline") == ("fifo", "smallest_first")
    assert choices_of(ClusterPointParams, "feedback") == ("off", "on")
    assert choices_of(PlatformPointParams, "arrival_process") == ("constant", "poisson")


# ----------------------------------------------------------------------
# Round trip: every field of every params type is reachable from a mapping
# ----------------------------------------------------------------------


def _sample(params_type: type, f: dataclasses.Field, hint: object) -> object:
    """A valid value for one field that differs from its default."""
    default = None if f.default is dataclasses.MISSING else f.default
    if "choices" in f.metadata:
        return [value for value in choices_of(params_type, f.name) if value != default][-1]
    members = typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)
    if bool in members:
        return not default
    if int in members:
        return (default or 0) + 3
    if float in members:
        return (default or 0.0) * 2.0 + 0.25
    if str in members:
        return "artifact.out"
    raise AssertionError(f"no sample value for {f.name}: {hint}")


def _full_mapping(params_type: type, section: typing.Optional[type] = None) -> dict:
    """A value for every key of ``params_type``, sections included."""
    mapping: typing.Dict[str, object] = {}
    hints = typing.get_type_hints(section or params_type)
    for f in dataclasses.fields(section or params_type):
        if dataclasses.is_dataclass(hints[f.name]):
            mapping.update(_full_mapping(params_type, hints[f.name]))
        else:
            mapping[f.name] = _sample(params_type, f, hints[f.name])
    return mapping


@pytest.mark.parametrize("params_type", [t for t, _ in RUNNER_TYPES], ids=lambda t: t.__name__)
def test_every_field_round_trips_through_a_mapping(params_type):
    mapping = _full_mapping(params_type)
    parsed = from_mapping(params_type, mapping)
    assert _flatten(parsed) == mapping


# ----------------------------------------------------------------------
# A bad grid fails before any point runs
# ----------------------------------------------------------------------


def test_a_bad_last_point_fails_before_any_point_runs(monkeypatch, tmp_path):
    import repro.analysis.backpressure as backpressure
    import repro.analysis.cluster_costs as cluster_costs

    calls = []
    for module, name in ((backpressure, "backpressure_point"), (cluster_costs, "cluster_point")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda p, s, run=original: calls.append(p) or run(p, s))
    journal = tmp_path / "grid.jsonl"
    with pytest.raises(ScenarioParamError, match="'nope'"):
        backpressure_sweep(
            axes={"queue_depth": (0,), "placement_policy": ("best_fit", "nope"),
                  "heterogeneity": ("homogeneous",)},
            common={"duration_s": 2.0},
            checkpoint=str(journal),
        )
    with pytest.raises(ScenarioParamError, match="with_scheduler"):
        backpressure_sweep(
            axes={"queue_depth": (0,), "placement_policy": ("best_fit",),
                  "heterogeneity": ("homogeneous",), "with_scheduler": (True, "false")},
            checkpoint=str(journal),
        )
    with pytest.raises(ScenarioParamError, match="did you mean 'rps_per_function'"):
        cluster_cost_sweep(
            axes={"num_functions": (2,), "placement_policy": ("best_fit",),
                  "keep_alive_s": (60.0,)},
            common={"rps_per_fnction": 5.0},
            checkpoint=str(journal),
        )
    assert calls == []
    assert not journal.exists()


def test_a_hand_built_bad_scenario_fails_at_its_own_point():
    from repro.sim.backends import SweepPointError

    good, bad = build_grid(
        runner="repro.sim.sweep:platform_point",
        axes={"platform": ["aws_lambda_like", "nope"]},
        common={"workload": "minimal", "duration_s": 2.0},
    )
    with pytest.raises(SweepPointError) as excinfo:
        run_sweep([good, bad])
    assert excinfo.value.scenario_id == bad.scenario_id
    assert isinstance(excinfo.value.__cause__, ScenarioParamError)


# ----------------------------------------------------------------------
# Structural: src/ reads no raw params outside the boundary
# ----------------------------------------------------------------------

#: Figure-internal runners: their scenarios are built in the same module from
#: typed keyword arguments, so no user-supplied mapping reaches them.
RAW_PARAMS_ALLOWED = {
    "sim/params.py",  # the boundary itself
    "analysis/concurrency.py",
    "analysis/keepalive.py",
    "analysis/overallocation.py",
}


def test_src_reads_no_raw_params_outside_the_boundary():
    raw = re.compile(r"\bparams(\.get\(|\[)")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in RAW_PARAMS_ALLOWED
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if raw.search(line)
    ]
    assert offenders == []
    for converted in (
        "analysis/scenario.py", "analysis/backpressure.py", "analysis/cluster_costs.py",
        "sim/retry.py", "sim/sweep.py", "tenancy/model.py", "obs/__init__.py",
    ):
        assert (SRC / converted).exists()
