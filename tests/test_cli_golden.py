"""Byte pin of the ``cluster`` / ``backpressure`` CLI, untraced and traced.

Each case runs :func:`repro.cli.main` in-process and hashes every artifact
it leaves behind: the result CSV, the span JSONL, the telemetry CSV, and
the printed table (with the temporary directory masked).  The untraced
entries of the sha256 manifest in ``tests/golden/cli/manifest.json`` were
recorded before the two cluster subcommands were folded onto one shared
flag group and grid tail, so any drift in param forwarding, scenario ids
(and therefore seeds), row columns or table printing fails here.  The
``*_traced`` entries pin the first grid point's recordings; their
``out.csv`` must hash like the untraced run's, since observers only read.

``--profile-out`` is left out on purpose: the kernel profile records wall
clock time.  Regenerating the manifest is only legitimate for an
*intentional* behaviour change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from repro.cli import main

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "cli" / "manifest.json"

#: Placeholder for the per-run temporary directory in the hashed stdout.
TMP = "<tmp>"

_CLUSTER = ["cluster", "--fleet-sizes", "2,3", "--policies", "best_fit,worst_fit",
            "--keep-alive-s", "15", "--duration-s", "8"]
#: The first grid point's span and telemetry recordings.
_TRACED = ["--trace-out", f"{TMP}/spans.jsonl", "--telemetry-out", f"{TMP}/telemetry.csv"]

#: case id -> (argv with ``<tmp>`` placeholders, artifact files to hash).
CASES = {
    "cluster": (_CLUSTER + ["--output", f"{TMP}/out.csv"], ["out.csv"]),
    "cluster_feedback_retry_tenants": (
        _CLUSTER
        + ["--feedback", "on", "--retry", "on", "--tenants", "off,2",
           "--tenant-on-exhausted", "queue", "--tenant-slo-latency-s", "2",
           "--output", f"{TMP}/out.csv"],
        ["out.csv"],
    ),
    "backpressure": (
        ["backpressure", "--queue-depths", "0,4", "--policies", "best_fit,cost_fit",
         "--duration-s", "8", "--output", f"{TMP}/out.csv"],
        ["out.csv"],
    ),
    "backpressure_retry_tenants_no_scheduler": (
        ["backpressure", "--queue-depths", "0", "--heterogeneity", "homogeneous,two_tier",
         "--feedback", "on", "--retry", "off,on", "--tenants", "off,2", "--no-scheduler",
         "--duration-s", "8", "--output", f"{TMP}/out.csv"],
        ["out.csv"],
    ),
    "backpressure_traced": (
        ["backpressure", "--queue-depths", "0,4", "--policies", "best_fit",
         "--heterogeneity", "homogeneous", "--feedback", "on", "--retry", "on",
         "--duration-s", "8", "--output", f"{TMP}/out.csv"] + _TRACED,
        ["out.csv", "spans.jsonl", "telemetry.csv"],
    ),
    "cluster_traced": (
        _CLUSTER + ["--output", f"{TMP}/out.csv"] + _TRACED,
        ["out.csv", "spans.jsonl", "telemetry.csv"],
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_case(case_id: str) -> dict:
    """Run one CLI case in a fresh temporary directory; hash its artifacts."""
    argv, artifacts = CASES[case_id]
    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([arg.replace(TMP, tmp) for arg in argv])
        assert code == 0, f"{case_id} exited with {code}"
        hashes = {"stdout": _sha256(stdout.getvalue().replace(tmp, TMP).encode())}
        for name in artifacts:
            hashes[name] = _sha256((pathlib.Path(tmp) / name).read_bytes())
    return hashes


def _manifest() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; regenerate (only after an intentional "
        "behaviour change) with 'PYTHONPATH=src python tests/test_cli_golden.py'"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_manifest_covers_every_case():
    assert sorted(_manifest()) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_artifacts_replay_byte_for_byte(case_id):
    assert _run_case(case_id) == _manifest()[case_id]


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    manifest = {case_id: _run_case(case_id) for case_id in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"regenerated {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
