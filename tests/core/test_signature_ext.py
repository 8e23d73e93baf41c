"""Tests for the Section-8 signature extension."""

import pytest

from repro.core.protocol import run_attestation
from repro.core.provisioning import provision_device
from repro.core.signature_ext import (
    SignatureVerifier,
    SigningProver,
    upgrade_to_signatures,
)
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_SMALL
from repro.utils.rng import DeterministicRng


@pytest.fixture
def signature_stack(small_system):
    provisioned, record = provision_device(small_system, "sig-prv", seed=4400)
    prover, public_key = upgrade_to_signatures(provisioned, record)
    verifier = SignatureVerifier(record.system, public_key, DeterministicRng(4401))
    return provisioned, prover, public_key, verifier


class TestSignatureAttestation:
    def test_honest_run_accepted(self, signature_stack):
        _, prover, _, verifier = signature_stack
        result = run_attestation(prover, verifier, DeterministicRng(1))
        assert result.report.accepted
        assert len(result.tag) == 288  # a Schnorr signature, not a MAC tag

    def test_repeated_runs_fresh_signatures(self, signature_stack):
        _, prover, _, verifier = signature_stack
        tags = {
            run_attestation(prover, verifier, DeterministicRng(run)).tag
            for run in range(2)
        }
        assert len(tags) == 2  # fresh nonce => fresh digest => fresh signature

    def test_tamper_detected(self, signature_stack):
        provisioned, prover, _, verifier = signature_stack
        frame = provisioned.system.partition.static_frame_list()[1]
        provisioned.board.fpga.memory.flip_bit(frame, 0, 4)
        result = run_attestation(prover, verifier, DeterministicRng(2))
        assert not result.report.accepted
        assert result.report.mismatched_frames == [frame]

    def test_wrong_public_key_rejected(self, signature_stack, small_system):
        _, _, public_key, _ = signature_stack
        other_prov, other_rec = provision_device(
            build_sacha_system(SIM_SMALL), "sig-other", seed=4500
        )
        other_prover, _ = upgrade_to_signatures(other_prov, other_rec)
        verifier = SignatureVerifier(
            other_rec.system, public_key, DeterministicRng(4501)
        )
        result = run_attestation(other_prover, verifier, DeterministicRng(3))
        assert not result.report.mac_valid
        assert result.report.config_match  # only the authenticity check fails

    def test_malformed_tag_rejected(self, signature_stack):
        _, prover, _, verifier = signature_stack
        result = run_attestation(prover, verifier, DeterministicRng(4))
        report = verifier.evaluate(
            result.nonce, result.plan, result.sweep, b"not-a-signature"
        )
        assert not report.mac_valid

    def test_public_key_is_stable(self, signature_stack):
        provisioned, prover, public_key, _ = signature_stack
        assert prover.public_key() == public_key
        again = SigningProver(provisioned.board, provisioned.key_provider)
        assert again.public_key() == public_key  # derived from the PUF secret

    def test_no_shared_secret_needed(self, signature_stack):
        """The verifier object holds only the public key; knowing it does
        not let anyone forge an attestation."""
        provisioned, prover, public_key, verifier = signature_stack
        result = run_attestation(prover, verifier, DeterministicRng(5))
        # An attacker with the public key and the transcript re-targets a
        # different readback order — the old signature must not verify.
        verifier_two = SignatureVerifier(
            provisioned.system, public_key, DeterministicRng(4402)
        )
        plan = verifier_two.readback_plan()
        frame_bytes = provisioned.system.device.frame_bytes
        by_frame = {
            frame_index: result.sweep[slot * frame_bytes : (slot + 1) * frame_bytes]
            for slot, frame_index in enumerate(result.plan)
        }
        replay = b"".join(by_frame[i] for i in plan)
        report = verifier_two.evaluate(
            verifier_two.new_nonce(), plan, replay, result.tag
        )
        assert not report.accepted
