"""Tests for the metrics registry: instruments, quantiles, merge and exposition."""

import json
import math
import threading

import numpy as np
import pytest

from urllib.error import HTTPError
from urllib.request import urlopen

from repro.exceptions import TelemetryError
from repro.service import EventBus, ServiceHttpServer
from repro.telemetry import (
    MetricsRegistry,
    metrics_table_rows,
    quantile_from_buckets,
    read_snapshot,
    render_prometheus,
    write_snapshot,
)


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestCounter:
    def test_inc_accumulates_per_label_series(self, registry):
        counter = registry.counter("jobs_total", help="Jobs.")
        counter.inc(state="done")
        counter.inc(2.5, state="done")
        counter.inc(state="failed")
        assert counter.value(state="done") == pytest.approx(3.5)
        assert counter.value(state="failed") == pytest.approx(1.0)
        assert counter.value(state="absent") == 0.0

    def test_label_order_is_irrelevant(self, registry):
        counter = registry.counter("c")
        counter.inc(a=1, b=2)
        assert counter.value(b=2, a=1) == pytest.approx(1.0)

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(TelemetryError, match="cannot decrease"):
            registry.counter("c").inc(-1.0)

    def test_get_or_create_returns_the_same_instrument(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("c")
        with pytest.raises(TelemetryError, match="already registered as a counter"):
            registry.gauge("c")


class TestGauge:
    def test_set_is_last_write_wins(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(3.0)
        gauge.set(1.0)
        assert gauge.value() == pytest.approx(1.0)

    def test_unset_series_reads_nan(self, registry):
        assert math.isnan(registry.gauge("depth").value(state="queued"))


class TestHistogram:
    def test_count_sum_and_bucketing(self, registry):
        histogram = registry.histogram("lat", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 4.0, 100.0):
            histogram.observe(value)
        assert histogram.count() == 5
        assert histogram.sum() == pytest.approx(107.0)
        # +Inf is appended implicitly, so the out-of-range observation is retained.
        assert histogram.quantile(1.0) == pytest.approx(5.0)  # +Inf reports last bound

    def test_quantiles_match_numpy_at_bucket_boundaries(self, registry):
        # 90 values of 1.0 and 10 of 2.0 under bounds (1, 2, 5): every requested
        # quantile lands exactly on a bucket boundary, where the cumulative-count
        # rule and numpy's linear-interpolation percentile agree exactly.
        values = [1.0] * 90 + [2.0] * 10
        histogram = registry.histogram("lat", buckets=(1.0, 2.0, 5.0))
        for value in values:
            histogram.observe(value)
        for q in (0.50, 0.95, 0.99):
            assert histogram.quantile(q) == pytest.approx(
                float(np.percentile(values, q * 100))
            )

    def test_empty_series_quantile_is_nan(self, registry):
        assert math.isnan(registry.histogram("lat").quantile(0.5))
        assert math.isnan(quantile_from_buckets((1.0, math.inf), (0, 0), 0.5))

    def test_per_label_series_are_independent(self, registry):
        histogram = registry.histogram("lat", buckets=(1.0, 10.0))
        histogram.observe(0.5, state="done")
        histogram.observe(8.0, state="failed")
        assert histogram.count(state="done") == 1
        assert histogram.quantile(0.5, state="failed") == pytest.approx(10.0)

    def test_no_buckets_rejected(self, registry):
        with pytest.raises(TelemetryError, match="at least one bucket"):
            registry.histogram("lat", buckets=())


class TestDisabledRegistry:
    def test_mutations_are_no_ops(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(1.0)
        assert registry.counter("c").value() == 0.0
        assert registry.histogram("h").count() == 0
        # Instruments register (cheap, happens once) but record nothing.
        assert registry.snapshot() == []

    def test_merge_works_even_when_disabled(self, registry):
        registry.counter("c").inc(2.0, policy="x")
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        target = MetricsRegistry(enabled=False)
        target.merge(registry.snapshot())
        target.merge(registry.snapshot())
        assert target.counter("c").value(policy="x") == pytest.approx(4.0)
        assert target.histogram("h").count() == 2


class TestSnapshotAndMerge:
    def test_snapshot_is_sorted_and_json_able(self, registry):
        registry.counter("b").inc()
        registry.counter("a").inc(tier="hi")
        registry.histogram("m", buckets=(1.0,)).observe(0.5)
        entries = registry.snapshot()
        assert [entry["name"] for entry in entries] == ["a", "b", "m"]
        json.dumps(entries)  # must round-trip through JSON unaided

    def test_merge_semantics_per_kind(self, registry):
        registry.counter("c").inc(3.0)
        registry.gauge("g").set(7.0)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snapshot = registry.snapshot()
        registry.merge(snapshot)
        assert registry.counter("c").value() == pytest.approx(6.0)  # counters add
        assert registry.gauge("g").value() == pytest.approx(7.0)  # gauges overwrite
        assert registry.histogram("h").count() == 2  # histograms add

    def test_merge_rejects_mismatched_bucket_bounds(self, registry):
        registry.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        snapshot = registry.snapshot()  # three buckets: 1, 2, +Inf
        other = MetricsRegistry()
        other.histogram("h", buckets=(1.0,))  # two buckets: 1, +Inf
        with pytest.raises(TelemetryError, match="cannot merge snapshot"):
            other.merge(snapshot)

    def test_merge_rejects_unknown_kind(self, registry):
        with pytest.raises(TelemetryError, match="unknown instrument kind"):
            registry.merge([{"name": "x", "kind": "summary"}])

    def test_snapshot_file_roundtrip(self, registry, tmp_path):
        registry.counter("c").inc(5.0, policy="autofl")
        path = tmp_path / "metrics.json"
        write_snapshot(registry, path)
        payload = read_snapshot(path)
        restored = MetricsRegistry()
        restored.merge(payload["metrics"])
        assert restored.counter("c").value(policy="autofl") == pytest.approx(5.0)

    def test_read_snapshot_rejects_corruption(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("{not json")
        with pytest.raises(TelemetryError, match="corrupt"):
            read_snapshot(path)
        path.write_text('{"no_metrics": 1}')
        with pytest.raises(TelemetryError, match="no 'metrics' key"):
            read_snapshot(path)

    def test_concurrent_observes_are_not_lost(self, registry):
        counter = registry.counter("c")
        histogram = registry.histogram("h", buckets=(10.0,))

        def spam():
            for index in range(500):
                counter.inc(worker="w")
                histogram.observe(float(index % 3))

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(worker="w") == pytest.approx(2000.0)
        assert histogram.count() == 2000


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self, registry):
        registry.counter("jobs_total", help="All jobs.").inc(2.0, state="done")
        registry.gauge("depth").set(3.0)
        text = render_prometheus(registry)
        assert "# HELP jobs_total All jobs.\n" in text
        assert "# TYPE jobs_total counter\n" in text
        assert 'jobs_total{state="done"} 2\n' in text
        assert "depth 3\n" in text

    def test_histogram_buckets_are_cumulative(self, registry):
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))
        for value in (0.5, 0.6, 1.5, 99.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert 'lat_bucket{le="1"} 2\n' in text
        assert 'lat_bucket{le="2"} 3\n' in text
        assert 'lat_bucket{le="+Inf"} 4\n' in text
        assert "lat_count 4\n" in text
        assert "lat_sum 101.6\n" in text

    def test_label_values_are_escaped(self, registry):
        registry.counter("c").inc(label='say "hi"\nthere\\')
        text = render_prometheus(registry)
        assert 'c{label="say \\"hi\\"\\nthere\\\\"} 1\n' in text


class TestMetricsServer:
    def test_scrape_healthz_and_refresh_hook(self, registry, tmp_path):
        registry.counter("c").inc(2.0)
        refreshed = []
        server = ServiceHttpServer(
            EventBus(tmp_path / "events.jsonl"),
            registry,
            port=0,
            refresh=lambda: refreshed.append(True),
        ).start()
        try:
            with urlopen(f"{server.url}/metrics", timeout=5) as response:
                body = response.read().decode("utf-8")
                content_type = response.headers["Content-Type"]
            assert "c 2\n" in body
            assert "version=0.0.4" in content_type
            assert refreshed  # the refresh hook ran before the scrape
            with urlopen(f"http://{server.host}:{server.port}/healthz", timeout=5) as response:
                assert response.read() == b"ok\n"
            with pytest.raises(HTTPError):
                urlopen(f"http://{server.host}:{server.port}/nope", timeout=5)
        finally:
            server.close()


class TestTableRows:
    def test_rows_cover_scalars_and_histograms(self, registry):
        registry.counter("c").inc(2.0)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        rows = metrics_table_rows(registry.snapshot())
        by_name = {row[0]: row for row in rows}
        assert by_name["c"][3] == "2"
        assert by_name["h"][4] == 1  # count column
        assert by_name["h"][6] == "2"  # p50 column
