"""JSON snapshot exporter."""

import json

from repro.obs import (
    MetricsRegistry,
    Tracer,
    registry_snapshot,
    write_snapshot,
)
from repro.obs.snapshot import SNAPSHOT_SCHEMA


def _small_registry():
    registry = MetricsRegistry()
    registry.counter("c_total", "C.", labelnames=("k",)).labels(k="a").inc(4)
    registry.gauge("g", "G.").set(1.25)
    hist = registry.histogram("h_seconds", "H.", buckets=[1.0, 2.0])
    hist.observe(0.5)
    hist.observe(5.0)
    return registry


class TestSnapshotShape:
    def test_schema_and_sections(self):
        snapshot = registry_snapshot(_small_registry(), Tracer())
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert {m["name"] for m in snapshot["metrics"]} == {
            "c_total", "g", "h_seconds",
        }
        assert snapshot["spans"] == []

    def test_counter_and_gauge_samples(self):
        snapshot = registry_snapshot(_small_registry(), Tracer())
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        assert by_name["c_total"]["samples"] == [
            {"labels": {"k": "a"}, "value": 4.0}
        ]
        assert by_name["g"]["samples"] == [{"labels": {}, "value": 1.25}]

    def test_histogram_sample_payload(self):
        snapshot = registry_snapshot(_small_registry(), Tracer())
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        (sample,) = by_name["h_seconds"]["samples"]
        assert sample["count"] == 2
        assert sample["sum"] == 5.5
        assert sample["min"] == 0.5
        assert sample["max"] == 5.0
        assert sample["buckets"][-1]["le"] == "+Inf"
        assert sample["buckets"][-1]["count"] == 2
        assert set(sample["quantiles"]) == {"p50", "p90", "p99"}

    def test_spans_included(self):
        tracer = Tracer(registry=MetricsRegistry())
        with tracer.span("layer.op") as span:
            span.add("rows", 3)
        snapshot = registry_snapshot(MetricsRegistry(), tracer)
        (root,) = snapshot["spans"]
        assert root["name"] == "layer.op"
        assert root["counters"] == {"rows": 3.0}


class TestWriteSnapshot:
    def test_writes_valid_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        written = write_snapshot(str(path), _small_registry(), Tracer())
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert loaded["schema"] == SNAPSHOT_SCHEMA

    def test_empty_histogram_serialises_finite(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("h", "empty")
        path = tmp_path / "m.json"
        write_snapshot(str(path), registry, Tracer())
        # json.load (strict JSON has no Infinity) must not choke.
        loaded = json.loads(path.read_text())
        (sample,) = loaded["metrics"][0]["samples"]
        assert sample["min"] == 0.0
        assert sample["max"] == 0.0
