"""Tests for the prover-side-mask protocol variant (Section 6.1 note)."""

import pytest

from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import ProtocolError
from repro.fpga.device import SIM_MEDIUM, XC6VLX240T
from repro.net.messages import IcapReadbackMaskedCommand, MaskedReadbackAck
from repro.timing.model import ActionTimingModel
from repro.utils.rng import DeterministicRng

MASKED = SessionOptions(mask_at_prover=True)


@pytest.fixture
def stack(medium_system):
    provisioned, record = provision_device(medium_system, "prv-msk", seed=6100)
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(6101))
    return provisioned, verifier


class TestMaskedVariant:
    def test_honest_run_accepted(self, stack):
        provisioned, verifier = stack
        result = run_attestation(provisioned.prover, verifier, DeterministicRng(1), MASKED)
        assert result.report.accepted
        assert result.sweep == b""  # no frame content travels back

    def test_running_application_accepted(self, stack):
        """The prover-applied mask absorbs live-register noise too."""
        provisioned, verifier = stack
        result = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(2),
            SessionOptions(mask_at_prover=True, scramble_registers=True),
        )
        assert result.report.accepted

    def test_tamper_rejected_but_not_localized(self, stack):
        provisioned, verifier = stack
        frame = verifier.system.partition.static_frame_list()[3]
        provisioned.board.fpga.memory.flip_bit(frame, 0, 8)
        result = run_attestation(provisioned.prover, verifier, DeterministicRng(3), MASKED)
        assert not result.report.accepted
        assert result.report.mismatched_frames == []  # the variant's cost
        assert "localization" in result.report.failure_reason

    def test_wrong_key_rejected(self, stack):
        provisioned, _ = stack
        wrong = SachaVerifier(
            provisioned.system, bytes(16), DeterministicRng(6102)
        )
        result = run_attestation(provisioned.prover, wrong, DeterministicRng(4), MASKED)
        assert not result.report.accepted

    def test_fresh_nonce_changes_tag(self, stack):
        provisioned, verifier = stack
        tags = {
            run_attestation(
                provisioned.prover, verifier, DeterministicRng(run), MASKED
            ).tag
            for run in range(2)
        }
        assert len(tags) == 2

    def test_both_variants_agree_on_honest_device(self, medium_system):
        provisioned, record = provision_device(medium_system, "prv-agree", seed=6200)
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(6201))
        plain = run_attestation(provisioned.prover, verifier, DeterministicRng(5))
        masked = run_attestation(
            provisioned.prover, verifier, DeterministicRng(6), MASKED
        )
        assert plain.report.accepted and masked.report.accepted


class TestMaskedProverChecks:
    def test_mask_length_validated(self, stack):
        provisioned, _ = stack
        with pytest.raises(ProtocolError, match="mask"):
            provisioned.prover.handle_command(
                IcapReadbackMaskedCommand(frame_index=0, mask=b"short")
            )

    def test_ack_echoes_frame(self, stack):
        provisioned, _ = stack
        mask = bytes(SIM_MEDIUM.frame_bytes)
        ack = provisioned.prover.handle_command(
            IcapReadbackMaskedCommand(frame_index=5, mask=mask)
        )
        assert ack == MaskedReadbackAck(frame_index=5)
        provisioned.prover.abort_run()


class TestVariantTiming:
    def test_similar_communication_latency(self):
        """The paper's claim: at full scale, the two variants differ by
        well under 1 % once the per-command network overhead dominates."""
        model = ActionTimingModel(XC6VLX240T)
        variant_a = model.readback_step_ns()
        variant_b = model.masked_readback_step_ns()
        # Per-step: the Msk payload upstream replaces the frame downstream.
        assert variant_b == pytest.approx(variant_a, rel=0.2)
        # Shape: B swaps A8 (frame sendback) for a bigger A3 + tiny ack.
        from repro.timing.model import ProtocolAction

        assert model.masked_ack_ns() < model.action_ns(ProtocolAction.A8)
        assert model.masked_readback_send_ns() > model.action_ns(ProtocolAction.A3)
