"""Registry aggregation: merging, snapshot restore, roll-ups."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.aggregate import (
    merge_registries,
    merge_snapshots,
    registry_from_snapshot,
    rollup_snapshot_by_label,
)
from repro.obs.exporters import registry_snapshot, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord


def _populate(registry, scale=1.0):
    registry.counter(
        "runs_total", "Runs", labels=("result",)
    ).inc(2 * scale, result="accept")
    registry.counter("runs_total", "Runs", labels=("result",)).inc(
        scale, result="reject"
    )
    registry.gauge("depth", "Depth").set(3 * scale)
    hist = registry.histogram(
        "latency_seconds", "Latency", buckets=(0.1, 1.0, 10.0)
    )
    hist.observe(0.05 * scale)
    hist.observe(5.0 * scale)
    return registry


class TestMergeRegistries:
    def test_counters_gauges_histograms_sum_exactly(self):
        merged = merge_registries(
            [_populate(MetricsRegistry()), _populate(MetricsRegistry())]
        )
        assert merged.get("runs_total").value(result="accept") == 4.0
        assert merged.get("runs_total").value(result="reject") == 2.0
        assert merged.get("depth").value() == 6.0
        assert merged.get("latency_seconds").count() == 4

    def test_merge_order_independent_output(self):
        a = _populate(MetricsRegistry(), scale=1.0)
        b = _populate(MetricsRegistry(), scale=2.0)
        forward = to_prometheus(merge_registries([a, b]))
        backward = to_prometheus(merge_registries([b, a]))
        assert forward == backward

    def test_merged_equals_single_big_registry(self):
        single = MetricsRegistry()
        runs = single.counter("runs_total", "Runs", labels=("result",))
        runs.inc(4, result="accept")
        runs.inc(2, result="reject")
        single.gauge("depth", "Depth").set(6)  # gauge merge sums sources
        hist = single.histogram(
            "latency_seconds", "Latency", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 5.0, 0.05, 5.0):
            hist.observe(value)
        merged = merge_registries(
            [_populate(MetricsRegistry()), _populate(MetricsRegistry())]
        )
        assert to_prometheus(merged) == to_prometheus(single)

    def test_spans_concatenate_without_remapping(self):
        source = MetricsRegistry(enabled=True)
        source.record_span(
            SpanRecord(
                span_id=source.next_span_id(),
                parent_id=None,
                name="member",
                start_ns=0.0,
                end_ns=1.0,
            )
        )
        target = MetricsRegistry(enabled=True)
        merge_registries([source], into=target)
        assert [r.name for r in target.spans if r.parent_id is None] == [
            "member"
        ]
        assert target.spans[0].span_id == 1

    def test_merge_into_disabled_registry_rejected(self):
        with pytest.raises(ObservabilityError):
            merge_registries([MetricsRegistry()], into=MetricsRegistry(False))

    def test_conflicting_metadata_rejected(self):
        a = MetricsRegistry()
        a.counter("runs_total", "Runs", labels=("result",))
        b = MetricsRegistry()
        b.gauge("runs_total", "Runs")
        with pytest.raises(ObservabilityError):
            merge_registries([a, b])


class TestSnapshotRestore:
    def test_round_trip_is_lossless(self):
        registry = _populate(MetricsRegistry())
        restored = registry_from_snapshot(registry_snapshot(registry))
        assert to_prometheus(restored) == to_prometheus(registry)
        assert registry_snapshot(restored) == registry_snapshot(registry)

    def test_merge_snapshots_matches_merge_registries(self):
        a = _populate(MetricsRegistry(), scale=1.0)
        b = _populate(MetricsRegistry(), scale=3.0)
        via_snapshots = merge_snapshots(
            [registry_snapshot(a), registry_snapshot(b)]
        )
        direct = merge_registries([a, b])
        assert to_prometheus(via_snapshots) == to_prometheus(direct)

    def test_legacy_histogram_snapshot_rejected(self):
        snapshot = registry_snapshot(_populate(MetricsRegistry()))
        del snapshot["latency_seconds"]["buckets"]
        with pytest.raises(ObservabilityError, match="bucket bounds"):
            registry_from_snapshot(snapshot)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown kind"):
            registry_from_snapshot({"weird": {"kind": "summary"}})


class TestRollup:
    def test_rollup_sums_other_labels_away(self):
        registry = MetricsRegistry()
        verdicts = registry.counter(
            "verdicts_total", "Verdicts", labels=("device_id", "verdict")
        )
        verdicts.inc(device_id="node-0", verdict="accept")
        verdicts.inc(device_id="node-1", verdict="accept")
        verdicts.inc(device_id="node-1", verdict="reject")
        snapshot = registry_snapshot(registry)
        assert rollup_snapshot_by_label(snapshot, "verdicts_total", "verdict") == {
            "accept": 2.0,
            "reject": 1.0,
        }
        assert rollup_snapshot_by_label(
            snapshot, "verdicts_total", "device_id"
        ) == {"node-0": 1.0, "node-1": 2.0}

    def test_missing_metric_is_empty(self):
        snapshot = registry_snapshot(MetricsRegistry())
        assert rollup_snapshot_by_label(snapshot, "nope", "x") == {}

    def test_histogram_counts_and_unknown_label_rejected(self):
        registry = MetricsRegistry()
        latency = registry.histogram(
            "phase_seconds", "Latency", labels=("phase",), buckets=(1.0,)
        )
        latency.observe(0.5, phase="config")
        latency.observe(0.5, phase="readback")
        latency.observe(2.0, phase="readback")
        snapshot = registry_snapshot(registry)
        assert rollup_snapshot_by_label(snapshot, "phase_seconds", "phase") == {
            "config": 1.0,
            "readback": 2.0,
        }
        with pytest.raises(ObservabilityError, match="not 'phase'"):
            rollup_snapshot_by_label(
                registry_snapshot(_populate(MetricsRegistry())),
                "runs_total",
                "phase",
            )
