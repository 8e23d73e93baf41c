"""Unit tests for the verifier: challenge construction and the verdict."""

import pytest

from repro.cache import get_artifact_cache
from repro.core.orders import ExplicitOrder
from repro.core.protocol import run_attestation
from repro.core.verifier import SachaVerifier, VerifierPolicy
from repro.errors import ProtocolError, VerificationError
from repro.net.batch import pack_config_commands
from repro.net.messages import IcapConfigCommand, ReadbackResponse, decode_command
from repro.utils.rng import DeterministicRng


class TestChallengeConstruction:
    def test_config_commands_cover_whole_dynmem(self, provisioned_medium, verifier_medium):
        nonce = verifier_medium.new_nonce()
        commands = verifier_medium.config_commands(nonce)
        covered = {command.frame_index for command in commands}
        assert covered == set(
            verifier_medium.system.partition.dynamic_frame_list()
        )

    def test_application_frames_precede_nonce(self, verifier_medium):
        """Figure 9: intended application first, then the nonce."""
        nonce = verifier_medium.new_nonce()
        commands = verifier_medium.config_commands(nonce)
        nonce_frames = set(verifier_medium.system.partition.nonce_frame_list())
        nonce_positions = [
            index
            for index, command in enumerate(commands)
            if command.frame_index in nonce_frames
        ]
        assert nonce_positions == list(
            range(len(commands) - len(nonce_positions), len(commands))
        )

    def test_nonce_embedded_in_command(self, verifier_medium):
        nonce = verifier_medium.new_nonce()
        commands = verifier_medium.config_commands(nonce)
        assert commands[-1].data.startswith(nonce)

    @pytest.mark.parametrize(
        "part", ["SIM-MEDIUM", pytest.param("XC6VLX240T", marks=pytest.mark.slow)]
    )
    def test_config_batches_decode_to_config_commands(self, part):
        """The pipelined transport's batches carry config_commands exactly."""
        system = get_artifact_cache().get_system(part)
        verifier = SachaVerifier(system, bytes(16), DeterministicRng(5))
        nonce = verifier.new_nonce()
        frame_bytes = system.device.frame_bytes
        batches = [
            decode_command(payload)
            for payload in pack_config_commands(*verifier.config_schedule(nonce))
        ]
        frames = [
            IcapConfigCommand(index, batch.data[k * frame_bytes : (k + 1) * frame_bytes])
            for batch in batches
            for k, index in enumerate(batch.frame_indices)
        ]
        assert frames == verifier.config_commands(nonce)

    def test_nonces_are_fresh(self, verifier_medium):
        assert verifier_medium.new_nonce() != verifier_medium.new_nonce()

    def test_readback_plan_covers_device(self, verifier_medium):
        plan = verifier_medium.readback_plan()
        assert set(plan) == set(
            range(verifier_medium.system.device.total_frames)
        )

    def test_key_length_checked(self, medium_system):
        with pytest.raises(VerificationError):
            SachaVerifier(medium_system, b"short", DeterministicRng(1))


class TestPolicy:
    def test_partial_coverage_order_rejected(self, provisioned_medium):
        _, record = provisioned_medium
        verifier = SachaVerifier(
            record.system,
            record.mac_key,
            DeterministicRng(1),
            order=ExplicitOrder([0, 1, 2]),
        )
        with pytest.raises(ProtocolError):
            verifier.readback_plan()

    def test_coverage_check_can_be_disabled(self, provisioned_medium):
        _, record = provisioned_medium
        verifier = SachaVerifier(
            record.system,
            record.mac_key,
            DeterministicRng(1),
            order=ExplicitOrder([0, 1, 2], skip_validation=True),
            policy=VerifierPolicy(require_full_coverage=False),
        )
        assert verifier.readback_plan() == [0, 1, 2]

    def test_max_steps_policy(self, provisioned_medium):
        _, record = provisioned_medium
        verifier = SachaVerifier(
            record.system,
            record.mac_key,
            DeterministicRng(1),
            policy=VerifierPolicy(max_readback_steps=10),
        )
        with pytest.raises(VerificationError):
            verifier.readback_plan()


class TestVerdict:
    def _session(self, provisioned, verifier):
        device, _ = provisioned
        return run_attestation(device.prover, verifier, DeterministicRng(9))

    def test_honest_run_accepted(self, provisioned_medium, verifier_medium):
        result = self._session(provisioned_medium, verifier_medium)
        assert result.report.accepted
        assert result.report.mac_valid
        assert result.report.config_match
        assert result.report.mismatched_frames == []

    def test_wrong_tag_rejected(self, provisioned_medium, verifier_medium):
        result = self._session(provisioned_medium, verifier_medium)
        bad_tag = bytes(16)
        report = verifier_medium.evaluate(
            result.nonce, result.plan, result.responses, bad_tag
        )
        assert not report.mac_valid
        assert report.config_match  # data itself was fine

    def test_truncated_responses_rejected(self, provisioned_medium, verifier_medium):
        result = self._session(provisioned_medium, verifier_medium)
        report = verifier_medium.evaluate(
            result.nonce, result.plan, result.responses[:-1], result.tag
        )
        assert not report.accepted
        assert "expected" in report.failure_reason

    def test_frame_echo_enforced(self, provisioned_medium, verifier_medium):
        result = self._session(provisioned_medium, verifier_medium)
        swapped = list(result.responses)
        swapped[0] = ReadbackResponse(
            frame_index=swapped[1].frame_index, data=swapped[0].data
        )
        report = verifier_medium.evaluate(
            result.nonce, result.plan, swapped, result.tag
        )
        assert not report.accepted
        assert "answered frame" in report.failure_reason

    def test_tampered_frame_localized(self, provisioned_medium, verifier_medium):
        result = self._session(provisioned_medium, verifier_medium)
        target = result.plan[5]
        tampered = [
            ReadbackResponse(r.frame_index, b"\xff" * len(r.data))
            if r.frame_index == target
            else r
            for r in result.responses
        ]
        report = verifier_medium.evaluate(
            result.nonce, result.plan, tampered, result.tag
        )
        assert not report.mac_valid  # tag no longer matches the stream
        assert report.mismatched_frames == [target]

    def test_report_explain_mentions_verdict(self, provisioned_medium, verifier_medium):
        result = self._session(provisioned_medium, verifier_medium)
        assert "ATTESTED" in result.report.explain()
