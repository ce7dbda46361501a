"""Unit tests for the metrics side of telemetry: histograms + Prometheus text."""

from __future__ import annotations

import math

import pytest

from repro.telemetry.registry import (
    DEFAULT_BUCKETS_MS,
    PERCENTILES,
    Histogram,
    TelemetryRegistry,
    percentile,
)


class TestPercentile:
    def test_nearest_rank_on_1_to_100(self):
        # For samples 1..100 the p-th percentile is exactly the sample at
        # rank ceil(p * 100).
        data = list(range(1, 101))
        assert [percentile(data, f) for f in (0.5, 0.95, 0.99, 0.999)] == [50, 95, 99, 100]

    def test_percentile_is_nearest_rank_on_small_n(self):
        data = [10.0, 20.0, 30.0]
        assert percentile(data, 0.5) == 20.0
        assert percentile(data, 0.95) == 30.0
        assert percentile(data, 0.0) == 10.0
        assert percentile([7.0], 0.999) == 7.0
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestHistogram:
    def test_percentiles_agree_with_the_shared_nearest_rank(self):
        histogram = Histogram()
        values = [float(v) for v in range(1, 101)]
        for value in values:
            histogram.observe(value)
        assert histogram.quantiles() == {
            label: percentile(values, fraction) for label, fraction in PERCENTILES
        }
        assert Histogram().quantiles() == {label: 0.0 for label, _ in PERCENTILES}

    def test_bucket_counts_are_cumulative_and_end_at_inf(self):
        histogram = Histogram((1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        counts = histogram.bucket_counts()
        assert counts == [(1.0, 1), (10.0, 2), (100.0, 3), (math.inf, 4)]

    def test_snapshot_summary(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["sum_ms"] == 6.0
        assert snapshot["mean_ms"] == 2.0
        assert snapshot["p50"] == 2.0
        assert snapshot["p999"] == 3.0

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS_MS) == sorted(DEFAULT_BUCKETS_MS)


class TestRegistry:
    def test_observe_span_creates_one_histogram_per_name(self):
        registry = TelemetryRegistry()
        registry.observe_span("shard", 1.0)
        registry.observe_span("shard", 2.0)
        registry.observe_span("request", 3.0)
        snapshot = registry.snapshot()
        assert sorted(snapshot) == ["request", "shard"]
        assert snapshot["shard"]["count"] == 2

    def test_reset_drops_everything(self):
        registry = TelemetryRegistry()
        registry.observe_span("shard", 1.0)
        registry.reset()
        assert registry.snapshot() == {}

    def test_prometheus_rendering(self):
        registry = TelemetryRegistry()
        registry.observe_span("shard", 3.0)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# TYPE kyrix_span_duration_ms histogram" in lines
        assert 'kyrix_span_duration_ms_bucket{span="shard",le="5"} 1' in lines
        assert 'kyrix_span_duration_ms_bucket{span="shard",le="2.5"} 0' in lines
        assert 'kyrix_span_duration_ms_bucket{span="shard",le="+Inf"} 1' in lines
        assert 'kyrix_span_duration_ms_count{span="shard"} 1' in lines
        assert 'kyrix_span_duration_ms_sum{span="shard"} 3.000000' in lines
        assert (
            'kyrix_span_duration_ms_quantile{span="shard",quantile="p99"} 3.000000'
            in lines
        )

    def test_prometheus_escapes_label_values(self):
        registry = TelemetryRegistry()
        registry.observe_span('we"ird\\name', 1.0)
        text = registry.render_prometheus()
        assert 'span="we\\"ird\\\\name"' in text
