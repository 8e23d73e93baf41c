"""Tests for swarm (fleet) attestation."""

import pytest

from repro.core.provisioning import provision_device
from repro.core.swarm import SwarmAttestation, SwarmMember, build_swarm
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import ProtocolError
from repro.fpga.device import SIM_SMALL
from repro.utils.rng import DeterministicRng


def _make_member(index, compromised_frame=None):
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, f"node-{index}", seed=5000 + index)
    if compromised_frame is not None:
        provisioned.board.fpga.memory.flip_bit(compromised_frame, 0, 0)
    verifier = SachaVerifier(
        record.system, record.mac_key, DeterministicRng(5100 + index)
    )
    return SwarmMember(f"node-{index}", provisioned.prover, verifier)


class TestSwarmSweep:
    def test_healthy_fleet(self):
        swarm = SwarmAttestation([_make_member(i) for i in range(4)])
        report = swarm.run(DeterministicRng(1))
        assert report.all_healthy
        assert len(report.healthy) == 4
        assert report.compromised == []

    def test_compromised_member_localized(self):
        system = build_sacha_system(SIM_SMALL)
        bad_frame = system.partition.static_frame_list()[0]
        members = [_make_member(0), _make_member(1, compromised_frame=bad_frame)]
        report = SwarmAttestation(members).run(DeterministicRng(2))
        assert report.compromised == ["node-1"]
        assert report.localize()["node-1"] == [bad_frame]
        assert "node-1" in report.explain()

    def test_nonces_are_independent_per_member(self):
        swarm = SwarmAttestation([_make_member(i) for i in range(3)])
        report = swarm.run(DeterministicRng(3))
        nonces = {result.nonce for result in report.results.values()}
        assert len(nonces) == 3

    def test_timing_aggregation(self):
        swarm = SwarmAttestation([_make_member(i) for i in range(3)])
        report = swarm.run(DeterministicRng(4))
        per_device = [r.timing.total_ns for r in report.results.values()]
        assert report.sequential_ns == pytest.approx(sum(per_device))
        assert report.parallel_ns == pytest.approx(max(per_device))
        assert report.parallel_ns <= report.sequential_ns

    def test_result_callback(self):
        seen = []
        swarm = SwarmAttestation([_make_member(i) for i in range(2)])
        swarm.run(
            DeterministicRng(5),
            on_result=lambda device_id, report: seen.append(device_id),
        )
        assert seen == ["node-0", "node-1"]

    def test_member_failure_stays_isolated(self):
        swarm = SwarmAttestation([_make_member(i) for i in range(3)])
        swarm._members[1].prover.board.power_off()
        report = swarm.run(DeterministicRng(11))
        assert report.inconclusive == ["node-1"]
        assert report.healthy == ["node-0", "node-2"]


class TestSwarmTelemetry:
    def _sweep_registry(self, compromised=False):
        from repro.obs.metrics import MetricsRegistry, use_registry

        bad_frame = build_sacha_system(SIM_SMALL).partition.static_frame_list()[0]
        members = [
            _make_member(
                i, compromised_frame=bad_frame if compromised and i == 1 else None
            )
            for i in range(4)
        ]
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            SwarmAttestation(members).run(DeterministicRng(99))
        return registry

    def test_member_spans_stay_under_sweep_span(self):
        registry = self._sweep_registry()
        roots = [record for record in registry.spans if record.parent_id is None]
        assert [record.name for record in roots] == ["swarm_sweep"]
        attestations = [
            record for record in registry.spans if record.name == "attestation"
        ]
        assert len(attestations) == 4
        assert all(
            record.parent_id == roots[0].span_id for record in attestations
        )

    def test_per_member_verdict_counter(self):
        from repro.obs.aggregate import rollup_snapshot_by_label
        from repro.obs.exporters import registry_snapshot

        registry = self._sweep_registry(compromised=True)
        by_verdict = rollup_snapshot_by_label(
            registry_snapshot(registry),
            "sacha_swarm_member_verdicts_total",
            "verdict",
        )
        assert by_verdict == {"accept": 3.0, "reject": 1.0}


class TestSwarmConstruction:
    def test_build_swarm_factory(self):
        def factory(index):
            member = _make_member(index + 10)
            return member.device_id, member.prover, member.verifier

        swarm = build_swarm(factory, 3)
        assert len(swarm) == 3

    def test_empty_swarm_rejected(self):
        with pytest.raises(ProtocolError):
            SwarmAttestation([])
        with pytest.raises(ProtocolError):
            build_swarm(lambda i: None, 0)

    def test_duplicate_device_ids_rejected(self):
        member = _make_member(42)
        clone = SwarmMember(member.device_id, member.prover, member.verifier)
        with pytest.raises(ProtocolError):
            SwarmAttestation([member, clone])
