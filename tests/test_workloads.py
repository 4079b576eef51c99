"""Unit tests for workloads (specs, PyAES kernel, traffic generators)."""

import pytest

from repro.workloads.functions import (
    MINIMAL_FUNCTION,
    PYAES_FUNCTION,
    VIDEO_PROCESSING_FUNCTION,
    WORKLOAD_CATALOG,
    WorkloadSpec,
    get_workload,
)
from repro.workloads.pyaes import aes_ctr_keystream, measure_pyaes_cpu_seconds, pyaes_workload
from repro.workloads.traffic import (
    burst_arrivals,
    constant_rate_arrivals,
    idle_gap_probe_arrivals,
    poisson_arrivals,
)


class TestWorkloadSpecs:
    def test_catalog_contains_paper_workloads(self):
        assert {"minimal", "pyaes", "pyaes_short", "video_processing", "io_bound"} <= set(WORKLOAD_CATALOG)

    def test_get_workload_unknown(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_pyaes_cpu_time_matches_paper(self):
        """§3.1: PyAES takes ~160 ms of CPU per request at 1 vCPU."""
        assert PYAES_FUNCTION.cpu_time_s == pytest.approx(0.160)

    def test_minimal_function_is_tiny(self):
        assert MINIMAL_FUNCTION.cpu_time_s < 1e-3

    def test_video_workload_decomposable(self):
        assert VIDEO_PROCESSING_FUNCTION.decomposable_chunks > 1

    def test_to_function_config(self):
        config = PYAES_FUNCTION.to_function_config(0.5, 1.0, init_duration_s=2.0)
        assert config.alloc_vcpus == 0.5
        assert config.service_time_s == pytest.approx(0.160 / 0.5)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", cpu_time_s=-1.0)
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", cpu_time_s=0.1, decomposable_chunks=0)


class TestPyAes:
    def test_keystream_length(self):
        stream = aes_ctr_keystream(b"0123456789abcdef", nonce=0, num_blocks=3)
        assert len(stream) == 48

    def test_keystream_deterministic(self):
        a = aes_ctr_keystream(b"0123456789abcdef", nonce=7, num_blocks=2)
        b = aes_ctr_keystream(b"0123456789abcdef", nonce=7, num_blocks=2)
        assert a == b

    def test_different_nonce_different_stream(self):
        a = aes_ctr_keystream(b"0123456789abcdef", nonce=1, num_blocks=1)
        b = aes_ctr_keystream(b"0123456789abcdef", nonce=2, num_blocks=1)
        assert a != b

    def test_known_fips197_vector(self):
        """AES-128 single-block known-answer test (FIPS-197 appendix C.1 style vector)."""
        key = bytes(range(16))
        # Encrypting the counter block 000102...0f equals the classic FIPS vector
        # when the "nonce" encodes that block value.
        nonce = int.from_bytes(bytes(range(16)), "big")
        stream = aes_ctr_keystream(key, nonce=nonce, num_blocks=1)
        assert stream.hex() == "0a940bb5416ef045f1c39458c653ea5a"

    def test_encryption_round_trip(self):
        message = b"serverless costs demystified" * 3
        ciphertext = pyaes_workload(message)
        assert ciphertext != message
        assert pyaes_workload(ciphertext) == message  # CTR is an involution with the same keystream

    def test_invalid_key_length(self):
        with pytest.raises(ValueError):
            aes_ctr_keystream(b"short", nonce=0, num_blocks=1)

    def test_measure_cpu_seconds_positive(self):
        assert measure_pyaes_cpu_seconds(message_size_bytes=256, repetitions=1) > 0

    def test_measure_invalid_args(self):
        with pytest.raises(ValueError):
            measure_pyaes_cpu_seconds(message_size_bytes=0)


class TestTraffic:
    def test_constant_rate_count_and_spacing(self):
        arrivals = constant_rate_arrivals(10, 2.0)
        assert len(arrivals) == 20
        assert arrivals[1] - arrivals[0] == pytest.approx(0.1)

    def test_constant_rate_invalid(self):
        with pytest.raises(ValueError):
            constant_rate_arrivals(0, 1.0)

    def test_poisson_mean_rate(self):
        arrivals = poisson_arrivals(50, 20.0, seed=1)
        assert len(arrivals) == pytest.approx(1000, rel=0.15)
        assert all(0 <= t < 20.0 for t in arrivals)

    def test_poisson_deterministic_by_seed(self):
        assert poisson_arrivals(5, 10.0, seed=3) == poisson_arrivals(5, 10.0, seed=3)

    def test_burst_deterministic_or_poisson(self):
        assert len(burst_arrivals(2.0, 10.0)) == 20
        assert burst_arrivals(2.0, 10.0, seed=1) != burst_arrivals(2.0, 10.0)

    def test_idle_gap_probes(self):
        arrivals = idle_gap_probe_arrivals([10.0, 20.0, 30.0])
        assert arrivals == [0.0, 10.0, 30.0]

    def test_idle_gap_negative_rejected(self):
        with pytest.raises(ValueError):
            idle_gap_probe_arrivals([-1.0])
