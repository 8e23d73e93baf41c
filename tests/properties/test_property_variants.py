"""Property-based tests for the protocol variants.

Completeness and soundness must hold not only for the paper's protocol
but for every variant: prover-side masking, batched readback over the
networked session, and the signature extension.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.net_session import NetworkAttestationSession, NetworkRunResult
from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import provision_device
from repro.core.report import Verdict
from repro.core.signature_ext import SignatureVerifier, upgrade_to_signatures
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_SMALL
from repro.fpga.registers import RegisterBit
from repro.net.channel import Channel, LatencyModel
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

TOTAL = SIM_SMALL.total_frames


def _fresh(seed):
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, f"var-{seed}", seed=seed)
    return system, provisioned, record


def _network_run(provisioned, record, seed, batch) -> NetworkRunResult:
    simulator = Simulator()
    return NetworkAttestationSession(
        simulator,
        Channel(simulator, LatencyModel(base_ns=5_000.0)),
        provisioned.prover,
        SachaVerifier(record.system, record.mac_key, DeterministicRng(seed + 1)),
        DeterministicRng(seed),
        readback_batch_frames=batch,
    ).run()


class TestMaskedVariantProperties:
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=8, deadline=None)
    def test_completeness(self, seed):
        system, provisioned, record = _fresh(seed)
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(seed + 1)
        )
        result = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(seed),
            SessionOptions(mask_at_prover=True),
        )
        assert result.report.accepted

    @given(
        seed=st.integers(0, 1_000),
        word=st.integers(0, SIM_SMALL.words_per_frame - 1),
        bit=st.integers(0, 31),
        frame_choice=st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_soundness(self, seed, word, bit, frame_choice):
        system, provisioned, record = _fresh(seed)
        static_frames = system.partition.static_frame_list()
        frame = static_frames[frame_choice % len(static_frames)]
        if system.combined_mask().is_masked(RegisterBit(frame, word, bit)):
            return
        provisioned.board.fpga.memory.flip_bit(frame, word, bit)
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(seed + 1)
        )
        result = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(seed),
            SessionOptions(mask_at_prover=True),
        )
        assert not result.report.accepted


class TestBatchedVariantProperties:
    """Any readback batch size over the networked session."""

    @given(seed=st.integers(0, 5_000), batch=st.integers(1, 40))
    @settings(max_examples=8, deadline=None)
    def test_completeness_for_any_batch_size(self, seed, batch):
        system, provisioned, record = _fresh(seed)
        result = _network_run(provisioned, record, seed, batch)
        assert result.report.accepted
        assert result.report.readback_steps == TOTAL

    @given(
        seed=st.integers(0, 1_000),
        batch=st.integers(1, 40),
        frame_choice=st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_soundness_with_localization(self, seed, batch, frame_choice):
        system, provisioned, record = _fresh(seed)
        static_frames = system.partition.static_frame_list()
        frame = static_frames[frame_choice % len(static_frames)]
        if system.combined_mask().is_masked(RegisterBit(frame, 0, 13)):
            return
        provisioned.board.fpga.memory.flip_bit(frame, 0, 13)
        result = _network_run(provisioned, record, seed, batch)
        assert result.report.verdict is Verdict.REJECT
        assert result.report.mismatched_frames == [frame]


class TestSignatureVariantProperties:
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=6, deadline=None)
    def test_completeness(self, seed):
        system, provisioned, record = _fresh(seed)
        prover, public_key = upgrade_to_signatures(provisioned, record)
        verifier = SignatureVerifier(
            record.system, public_key, DeterministicRng(seed + 1)
        )
        result = run_attestation(prover, verifier, DeterministicRng(seed))
        assert result.report.accepted

    @given(seed=st.integers(0, 1_000), frame_choice=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_soundness(self, seed, frame_choice):
        system, provisioned, record = _fresh(seed)
        static_frames = system.partition.static_frame_list()
        frame = static_frames[frame_choice % len(static_frames)]
        if system.combined_mask().is_masked(RegisterBit(frame, 1, 7)):
            return
        provisioned.board.fpga.memory.flip_bit(frame, 1, 7)
        prover, public_key = upgrade_to_signatures(provisioned, record)
        verifier = SignatureVerifier(
            record.system, public_key, DeterministicRng(seed + 1)
        )
        result = run_attestation(prover, verifier, DeterministicRng(seed))
        assert not result.report.accepted
