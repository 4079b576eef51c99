"""Byte-compat pin: ``tenants=None`` reproduces pre-tenancy outputs exactly.

The tenancy layer (PR 9) threads a tenant id and an origin timestamp through
arrivals, routing tuples, outcome records, the retry loop, the cost meter and
the sweep runners.  Every one of those touch points is gated the same way the
feedback/retry/obs layers were: with no tenants configured the code must take
the exact pre-tenancy paths.  This suite pins that contract against artifacts
generated from the tree *before* the tenancy change landed:

- ``tests/golden/tenancy/baseline_cluster.csv`` — a cluster-cost sweep
  (feedback on),
- ``tests/golden/tenancy/baseline_backpressure.csv`` — a backpressure sweep
  (feedback off, scheduler co-simulated),
- ``tests/golden/tenancy/baseline_retry.csv`` — a retry-amplification sweep
  (feedback on, retry off vs on),
- ``tests/golden/tenancy/baseline_fingerprints.json`` — sha256 replay
  fingerprints of direct cluster co-simulations (feedback off; feedback on
  with retries; and the same run with the observability layer attached,
  which must not move a byte).

CSV comparisons are on raw bytes; fingerprints hash the full summary row,
the fleet utilisation timeline and the unplaceable ledger.  Regenerating
these goldens is only legitimate for an *intentional* behaviour change to
the pre-tenancy layers::

    PYTHONPATH=src python tests/test_tenancy_compat.py
"""

import dataclasses
import hashlib
import json
import pathlib

from repro.analysis.backpressure import backpressure_sweep, retry_amplification_sweep
from repro.analysis.cluster_costs import cluster_cost_sweep
from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.obs import Observability
from repro.platform.presets import get_platform_preset
from repro.sim.retry import RetryPolicy
from repro.workloads.functions import PYAES_FUNCTION

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "tenancy"

#: Frozen scenario identity: changing any of these invalidates the baselines.
BASE_SEED = 20260808
FINGERPRINT_SEED = 20260807

CLUSTER_AXES = {
    "num_functions": (2, 3),
    "placement_policy": ("best_fit",),
    "keep_alive_s": (15.0,),
}
CLUSTER_COMMON = {"duration_s": 8.0, "feedback": "on"}

BACKPRESSURE_AXES = {
    "queue_depth": (0, 2),
    "placement_policy": ("best_fit",),
    "heterogeneity": ("homogeneous",),
}
BACKPRESSURE_COMMON = {"duration_s": 8.0, "num_functions": 3}

RETRY_AXES = {
    "queue_depth": (0,),
    "placement_policy": ("best_fit",),
    "heterogeneity": ("homogeneous",),
    "retry": ("off", "on"),
}
RETRY_COMMON = {"duration_s": 8.0, "num_functions": 3, "rps_per_function": 4.0}

RETRY_POLICY = RetryPolicy(
    max_attempts=3,
    base_backoff_s=0.25,
    backoff_multiplier=2.0,
    max_backoff_s=10.0,
    jitter=0.2,
)


def _csv_bytes(store, path) -> bytes:
    store.to_csv(str(path))
    return pathlib.Path(path).read_bytes()


def _cluster_sweep_bytes(tmp) -> bytes:
    store = cluster_cost_sweep(axes=CLUSTER_AXES, common=CLUSTER_COMMON, base_seed=BASE_SEED)
    return _csv_bytes(store, tmp / "cluster.csv")


def _backpressure_sweep_bytes(tmp) -> bytes:
    store = backpressure_sweep(
        axes=BACKPRESSURE_AXES, common=BACKPRESSURE_COMMON, base_seed=BASE_SEED
    )
    return _csv_bytes(store, tmp / "backpressure.csv")


def _retry_sweep_bytes(tmp) -> bytes:
    store = retry_amplification_sweep(axes=RETRY_AXES, common=RETRY_COMMON, base_seed=BASE_SEED)
    return _csv_bytes(store, tmp / "retry.csv")


def _fingerprint_scenario(feedback: str, retry, obs=None) -> ClusterSimulator:
    """A small saturated co-simulation: one host, short keep-alive, retries live."""
    preset = get_platform_preset("aws_lambda_like")
    preset = dataclasses.replace(
        preset,
        keep_alive=dataclasses.replace(
            preset.keep_alive, min_keep_alive_s=1.0, max_keep_alive_s=1.0
        ),
    )
    deployments = []
    for index in range(2):
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5),
            name=f"fn-{index:02d}",
        )
        deployments.append(
            FunctionDeployment(function=function, platform=preset, rps=4.0, duration_s=5.0)
        )
    return ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=2.0, memory_gb=4.0),
            max_hosts=1,
            queue_depth=2,
            sample_interval_s=2.0,
        ),
        billing_platform="aws_lambda",
        seed=FINGERPRINT_SEED,
        feedback=feedback,
        retry=retry,
        obs=obs,
    )


def _fingerprint(result) -> str:
    payload = json.dumps(
        {
            "summary": result.summary(),
            "timeline": result.fleet.timeline,
            "unplaceable": result.fleet.unplaceable,
        },
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def _current_fingerprints() -> dict:
    return {
        "feedback_off": _fingerprint(_fingerprint_scenario("off", None).run()),
        "feedback_on_retry_on": _fingerprint(
            _fingerprint_scenario("on", RETRY_POLICY).run()
        ),
    }


def _require(path: pathlib.Path) -> pathlib.Path:
    assert path.exists(), (
        f"missing baseline {path}; regenerate (only after an intentional "
        "pre-tenancy behaviour change) with "
        "'PYTHONPATH=src python tests/test_tenancy_compat.py'"
    )
    return path


class TestSweepCsvByteCompat:
    def test_cluster_sweep_csv_byte_identical(self, tmp_path):
        golden = _require(GOLDEN_DIR / "baseline_cluster.csv").read_bytes()
        assert _cluster_sweep_bytes(tmp_path) == golden

    def test_backpressure_sweep_csv_byte_identical(self, tmp_path):
        golden = _require(GOLDEN_DIR / "baseline_backpressure.csv").read_bytes()
        assert _backpressure_sweep_bytes(tmp_path) == golden

    def test_retry_sweep_csv_byte_identical(self, tmp_path):
        golden = _require(GOLDEN_DIR / "baseline_retry.csv").read_bytes()
        assert _retry_sweep_bytes(tmp_path) == golden


class TestReplayFingerprints:
    def test_cluster_fingerprints_match_baseline(self):
        golden = json.loads(_require(GOLDEN_DIR / "baseline_fingerprints.json").read_text())
        assert _current_fingerprints() == golden

    def test_obs_attached_run_matches_the_same_fingerprint(self):
        """Observability only reads the bus: same fingerprint as the bare run."""
        golden = json.loads(_require(GOLDEN_DIR / "baseline_fingerprints.json").read_text())
        obs = Observability()
        result = _fingerprint_scenario("on", RETRY_POLICY, obs=obs).run()
        assert _fingerprint(result) == golden["feedback_on_retry_on"]


def regenerate() -> None:
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (GOLDEN_DIR / "baseline_cluster.csv").write_bytes(_cluster_sweep_bytes(tmp))
        (GOLDEN_DIR / "baseline_backpressure.csv").write_bytes(_backpressure_sweep_bytes(tmp))
        (GOLDEN_DIR / "baseline_retry.csv").write_bytes(_retry_sweep_bytes(tmp))
    (GOLDEN_DIR / "baseline_fingerprints.json").write_text(
        json.dumps(_current_fingerprints(), indent=2, sort_keys=True) + "\n"
    )
    print(f"regenerated baselines under {GOLDEN_DIR}")


if __name__ == "__main__":
    regenerate()
