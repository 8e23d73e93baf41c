"""Exporter golden outputs: Prometheus text and JSON lines."""

import json

from repro.obs.exporters import (
    registry_snapshot,
    spans_to_jsonl,
    to_jsonl,
    to_prometheus,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import span


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    verdicts = registry.counter(
        "sacha_attestations_total", "Runs by verdict", labels=("result",)
    )
    verdicts.inc(result="accept")
    verdicts.inc(2, result="reject")
    registry.gauge("sacha_fleet_size", "Devices under monitoring").set(3)
    histogram = registry.histogram(
        "sacha_phase_duration_seconds",
        "Phase durations",
        labels=("phase",),
        buckets=(0.1, 1.0),
    )
    histogram.observe(0.05, phase="config")
    histogram.observe(0.5, phase="config")
    return registry


GOLDEN_PROMETHEUS = """\
# HELP sacha_attestations_total Runs by verdict
# TYPE sacha_attestations_total counter
sacha_attestations_total{result="accept"} 1
sacha_attestations_total{result="reject"} 2
# HELP sacha_fleet_size Devices under monitoring
# TYPE sacha_fleet_size gauge
sacha_fleet_size 3
# HELP sacha_phase_duration_seconds Phase durations
# TYPE sacha_phase_duration_seconds histogram
sacha_phase_duration_seconds_bucket{phase="config",le="0.1"} 1
sacha_phase_duration_seconds_bucket{phase="config",le="1"} 2
sacha_phase_duration_seconds_bucket{phase="config",le="+Inf"} 2
sacha_phase_duration_seconds_sum{phase="config"} 0.55
sacha_phase_duration_seconds_count{phase="config"} 2
"""


class TestPrometheus:
    def test_golden_output(self):
        assert to_prometheus(_sample_registry()) == GOLDEN_PROMETHEUS

    def test_deterministic(self):
        assert to_prometheus(_sample_registry()) == to_prometheus(
            _sample_registry()
        )

    def test_unlabeled_counter_without_samples_renders_zero(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("sacha_empty_total", "Never incremented")
        assert "sacha_empty_total 0" in to_prometheus(registry)

    def test_label_values_escaped(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("x_total", labels=("why",)).inc(why='said "no"\nhard')
        exposition = to_prometheus(registry)
        assert 'why="said \\"no\\"\\nhard"' in exposition

    def test_write_prometheus(self, tmp_path):
        target = write_prometheus(_sample_registry(), tmp_path / "metrics.prom")
        assert target.read_text(encoding="utf-8") == GOLDEN_PROMETHEUS

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry(enabled=True)) == ""


class TestJsonl:
    def test_sorted_keys_one_object_per_line(self):
        text = to_jsonl([{"b": 2, "a": 1}, {"kind": "x"}])
        lines = text.splitlines()
        assert lines[0] == '{"a": 1, "b": 2}'
        assert json.loads(lines[1]) == {"kind": "x"}

    def test_spans_to_jsonl_round_trips(self, registry):
        with span("attestation"):
            with span("config", frames=24):
                pass
        lines = [
            json.loads(line)
            for line in spans_to_jsonl(registry.spans).splitlines()
        ]
        assert [line["name"] for line in lines] == ["config", "attestation"]
        by_name = {line["name"]: line for line in lines}
        assert by_name["config"]["parent_id"] == by_name["attestation"]["span_id"]
        assert by_name["config"]["attributes"] == {"frames": 24}

    def test_write_jsonl(self, tmp_path):
        target = write_jsonl([{"a": 1}], tmp_path / "events.jsonl")
        assert target.read_text(encoding="utf-8") == '{"a": 1}\n'


class TestSnapshot:
    def test_registry_snapshot_shape(self):
        snapshot = registry_snapshot(_sample_registry())
        assert snapshot["sacha_attestations_total"]["samples"] == [
            {"labels": {"result": "accept"}, "value": 1.0},
            {"labels": {"result": "reject"}, "value": 2.0},
        ]
        assert snapshot["sacha_phase_duration_seconds"]["samples"][0]["count"] == 2

    def test_snapshot_carries_family_metadata(self):
        snapshot = registry_snapshot(_sample_registry())
        counters = snapshot["sacha_attestations_total"]
        assert counters["kind"] == "counter"
        assert counters["help"] == "Runs by verdict"
        assert counters["label_names"] == ["result"]
        histogram = snapshot["sacha_phase_duration_seconds"]
        assert histogram["buckets"] == [0.1, 1.0]
        assert histogram["samples"][0]["bucket_counts"] == [1, 1]

    def test_snapshot_restores_losslessly(self):
        from repro.obs.aggregate import registry_from_snapshot

        restored = registry_from_snapshot(registry_snapshot(_sample_registry()))
        assert to_prometheus(restored) == GOLDEN_PROMETHEUS

    def test_snapshot_is_json_serializable(self):
        snapshot = registry_snapshot(_sample_registry())
        assert json.loads(json.dumps(snapshot, sort_keys=True))


class TestSeedIdenticalTelemetry:
    def test_swarm_exposition_matches_seed_rerun(self):
        from repro.core.provisioning import provision_device
        from repro.core.swarm import SwarmAttestation, SwarmMember
        from repro.core.verifier import SachaVerifier
        from repro.design.sacha_design import build_sacha_system
        from repro.fpga.device import SIM_SMALL
        from repro.obs.metrics import use_registry
        from repro.utils.rng import DeterministicRng

        def sweep():
            members = []
            for index in range(3):
                system = build_sacha_system(SIM_SMALL)
                provisioned, record = provision_device(
                    system, f"golden-{index}", seed=880 + index
                )
                verifier = SachaVerifier(
                    record.system, record.mac_key, DeterministicRng(890 + index)
                )
                members.append(
                    SwarmMember(
                        f"golden-{index}", provisioned.prover, verifier
                    )
                )
            fresh = MetricsRegistry(enabled=True)
            with use_registry(fresh):
                SwarmAttestation(members).run(DeterministicRng(42))
            return to_prometheus(fresh)

        assert sweep() == sweep()
