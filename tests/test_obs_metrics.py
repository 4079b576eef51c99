"""Metrics primitives, the robust percentile contract, and telemetry sampling."""

import csv
import math

import numpy as np
import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from repro.obs.telemetry import TelemetryProcess
from repro.platform.metrics import RequestOutcome, SimulationMetrics
from repro.sim.kernel import SimulationKernel


# ----------------------------------------------------------------------
# percentile(): defined for every input
# ----------------------------------------------------------------------


class TestPercentile:
    def test_empty_returns_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_single_sample_is_every_percentile_of_itself(self):
        for q in (0.0, 0.01, 0.5, 0.95, 1.0):
            assert percentile([3.25], q) == 3.25

    def test_matches_numpy_on_bulk_data(self):
        values = [float(v) for v in range(1, 101)]
        for q in (0.05, 0.5, 0.95, 0.99):
            assert percentile(values, q) == float(np.quantile(values, q))

    def test_percent_style_q_is_normalised(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 95) == percentile(values, 0.95)
        assert percentile(values, 50.0) == percentile(values, 0.5)

    def test_out_of_range_q_clamps(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, -0.5) == 1.0
        assert percentile(values, 1.0) == 3.0


class TestSimulationMetricsPercentiles:
    """The PR-6 fix: percentile methods are total, not crash-on-empty."""

    @staticmethod
    def _outcome(duration, arrival=0.0, completion=None):
        return RequestOutcome(
            request_id="req-0",
            arrival_s=arrival,
            origin_s=arrival,
            start_s=arrival,
            completion_s=completion if completion is not None else arrival + duration,
            execution_duration_s=duration,
            cold_start=False,
            init_duration_s=0.0,
            queue_delay_s=0.0,
            sandbox_name="sb-0",
        )

    def test_empty_metrics_return_nan_not_raise(self):
        metrics = SimulationMetrics()
        assert math.isnan(metrics.percentile_execution_duration_s(0.95))
        assert math.isnan(metrics.percentile_end_to_end_latency_s(0.95))

    def test_single_sample(self):
        metrics = SimulationMetrics()
        metrics.record(self._outcome(2.5))
        assert metrics.percentile_execution_duration_s(0.95) == 2.5
        assert metrics.percentile_end_to_end_latency_s(0.5) == 2.5

    def test_percent_style_q(self):
        metrics = SimulationMetrics()
        for duration in (1.0, 2.0, 3.0, 4.0):
            metrics.record(self._outcome(duration))
        assert metrics.percentile_execution_duration_s(95) == (
            metrics.percentile_execution_duration_s(0.95)
        )

    def test_bulk_matches_numpy(self):
        metrics = SimulationMetrics()
        for duration in range(1, 21):
            metrics.record(self._outcome(float(duration)))
        expected = float(np.quantile([float(d) for d in range(1, 21)], 0.95))
        assert metrics.percentile_execution_duration_s(0.95) == expected


# ----------------------------------------------------------------------
# Counter / Gauge / Histogram
# ----------------------------------------------------------------------


class TestPrimitives:
    def test_counter(self):
        counter = Counter("arrivals")
        counter.inc()
        counter.inc(3)
        assert counter.read() == 4.0

    def test_gauge_callback_backed(self):
        state = {"depth": 7}
        gauge = Gauge("queue_depth", fn=lambda: state["depth"])
        assert gauge.read() == 7.0
        state["depth"] = 2
        assert gauge.read() == 2.0

    def test_gauge_set(self):
        gauge = Gauge("manual")
        gauge.set(1.5)
        assert gauge.read() == 1.5

    def test_histogram_summary(self):
        hist = Histogram("latency_s")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.mean == 2.5
        assert hist.min == 1.0 and hist.max == 4.0
        summary = hist.summary(percentiles=(0.5,))
        assert summary["count"] == 4.0
        assert summary["p50"] == 2.5

    def test_histogram_window_is_bounded(self):
        hist = Histogram("bounded", capacity=8)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100  # totals keep counting
        assert hist.percentile(0.0) == 92.0  # window holds the last 8

    def test_slots_no_dict(self):
        # __slots__ is the point: thousands of metric updates per simulated
        # second must not allocate per-instance dicts.
        for obj in (Counter("c"), Gauge("g"), Histogram("h")):
            with pytest.raises(AttributeError):
                obj.arbitrary = 1  # type: ignore[attr-defined]


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")
        with pytest.raises(ValueError):
            registry.histogram("a")

    def test_sample_reads_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("arrivals").inc(5)
        registry.gauge("depth", fn=lambda: 3.0)
        registry.histogram("lat").observe(1.0)
        sample = registry.sample()
        assert sample["arrivals"] == 5.0
        assert sample["depth"] == 3.0
        assert sample["lat"] == 1.0  # histograms sample their count


# ----------------------------------------------------------------------
# TelemetryProcess: ring-buffered sampling on the kernel time grid
# ----------------------------------------------------------------------


class TestTelemetry:
    def _run(self, horizon_s=10.0, interval_s=1.0, capacity=4096):
        kernel = SimulationKernel()
        registry = MetricsRegistry()
        counter = registry.counter("ticks")
        registry.gauge("now", fn=lambda: kernel.now)
        telemetry = TelemetryProcess(registry, interval_s=interval_s, capacity=capacity)
        kernel.add_process(telemetry)
        kernel.on("bump", lambda event: counter.inc())
        for t in (0.5, 2.5, 7.5):
            kernel.schedule(t, "bump")
        kernel.run(until=horizon_s)
        return telemetry

    def test_samples_on_the_grid(self):
        telemetry = self._run()
        times, _ = telemetry.series("time_s")
        assert times == [float(t) for t in range(0, 11)]
        assert telemetry.samples_taken == len(times)

    def test_counter_series_is_monotone_step(self):
        telemetry = self._run()
        _, ticks = telemetry.series("ticks")
        assert ticks == sorted(ticks)
        assert ticks[0] == 0.0 and ticks[-1] == 3.0

    def test_ring_buffer_caps_memory(self):
        telemetry = self._run(horizon_s=100.0, capacity=16)
        assert telemetry.samples_taken == 101
        assert len(telemetry.rows) == 16
        times, _ = telemetry.series("time_s")
        assert times[-1] == 100.0

    def test_csv_roundtrip(self, tmp_path):
        telemetry = self._run()
        path = tmp_path / "telemetry.csv"
        telemetry.to_csv(str(path))
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == telemetry.samples_taken
        assert rows[0]["time_s"] == "0.0"
        assert float(rows[-1]["ticks"]) == 3.0

    def test_summary_percentiles(self):
        telemetry = self._run()
        summary = telemetry.summary(percentiles=(0.5,))
        assert summary["ticks"]["max"] == 3.0
        assert summary["ticks"]["last"] == 3.0
        assert "p50" in summary["ticks"]
