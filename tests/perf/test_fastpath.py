"""Zero-copy frame fast paths are byte-identical to the scalar paths."""

import hmac

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.orders import ExplicitOrder
from repro.core.protocol import run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier, VerifierPolicy
from repro.crypto.cmac import AesCmac
from repro.design.sacha_design import build_sacha_system
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_MEDIUM, SIM_SMALL
from repro.fpga.icap import Icap
from repro.fpga.mask import MaskFile
from repro.fpga.registers import LiveRegisterFile, RegisterBit
from repro.utils.rng import DeterministicRng


@pytest.fixture
def memory():
    memory = ConfigurationMemory(SIM_SMALL)
    memory.randomize(DeterministicRng(41))
    return memory


@pytest.fixture
def registers(memory):
    registers = LiveRegisterFile(SIM_SMALL)
    registers.declare(
        [
            RegisterBit(2, 0, 3),
            RegisterBit(2, 1, 17),
            RegisterBit(5, 2, 30),
        ],
        initial=1,
    )
    return registers


class TestBulkReadback:
    def test_read_frames_equals_frame_loop(self, memory):
        bulk = memory.read_frames(1, 4)
        assert bulk == b"".join(memory.read_frame(i) for i in range(1, 5))

    def test_readback_range_equals_frame_loop(self, memory, registers):
        reference = Icap(memory.copy(), registers)
        icap = Icap(memory, registers)
        total = SIM_SMALL.total_frames
        # Registers live in frames 2 and 5: whole sweeps, ranges that
        # start and end inside register-bearing frames, single frames,
        # and a range between them.
        for start, count in ((0, total), (2, 4), (2, 1), (5, 1), (3, 2), (5, total - 5)):
            expected = b"".join(
                reference.readback_frame(i) for i in range(start, start + count)
            )
            assert icap.readback_range(start, count) == expected, (start, count)

    def test_iterator_matches_readback_all(self, memory, registers):
        icap = Icap(memory, registers)
        frames = [bytes(frame) for frame in icap.iter_readback()]
        assert frames == Icap(memory.copy(), registers).readback_all()

    def test_range_keeps_transaction_accounting(self, memory, registers):
        per_frame = Icap(memory.copy(), registers)
        for index in range(SIM_SMALL.total_frames):
            per_frame.readback_frame(index)
        bulk = Icap(memory, registers)
        bulk.readback_range(0, SIM_SMALL.total_frames)
        assert bulk.stats.frames_read == per_frame.stats.frames_read
        assert bulk.stats.words_read == per_frame.stats.words_read


class TestMaskSweep:
    def test_apply_to_sweep_equals_per_frame(self, memory):
        mask = MaskFile(SIM_SMALL)
        mask.set_positions(
            [RegisterBit(0, 0, 1), RegisterBit(3, 2, 9), RegisterBit(3, 3, 31)]
        )
        indices = [3, 0, 3, 1]
        sweep = np.frombuffer(
            b"".join(memory.read_frame(i) for i in indices), dtype=">u4"
        ).reshape(len(indices), SIM_SMALL.words_per_frame)
        masked = mask.apply_to_sweep(sweep, indices)
        for row, frame_index in enumerate(indices):
            assert (
                masked[row].astype(">u4").tobytes()
                == mask.apply_to_frame(frame_index, memory.read_frame(frame_index))
            )


def _reference_verdict(verifier, key, nonce, plan, sweep, tag):
    """Figure 9's two checks one frame at a time: one MAC update and one
    masked compare per received frame."""
    system = verifier.system
    golden = system.golden_memory(nonce)
    mask = system.combined_mask()
    frame_bytes = system.device.frame_bytes
    mac = AesCmac(key)
    mismatched = set()
    for slot, frame_index in enumerate(plan):
        received = sweep[slot * frame_bytes : (slot + 1) * frame_bytes]
        mac.update(received)
        expected = mask.apply_to_frame(frame_index, golden.read_frame(frame_index))
        if not verifier.attest_live_state:
            received = mask.apply_to_frame(frame_index, received)
        if received != expected:
            mismatched.add(frame_index)
    return hmac.compare_digest(mac.finalize(), tag), sorted(mismatched)


def _reference_masked_mac(system, key, nonce, plan):
    golden = system.golden_memory(nonce)
    mask = system.combined_mask()
    mac = AesCmac(key)
    for frame_index in plan:
        mac.update(mask.apply_to_frame(frame_index, golden.read_frame(frame_index)))
    return mac.finalize()


_PARTS = {"SIM-SMALL": SIM_SMALL, "SIM-MEDIUM": SIM_MEDIUM}
_REGIONS = ("static", "application", "nonce")


@st.composite
def _evaluate_cases(draw):
    """(part, plan, full coverage, live state, bit flips, re-tag)."""
    part = draw(st.sampled_from(sorted(_PARTS)))
    total = _PARTS[part].total_frames
    full_coverage = draw(st.booleans())
    if full_coverage:
        plan = draw(st.permutations(range(total)))
    else:
        plan = draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=total))
        plan = plan + [plan[0]]  # one frame read back twice
    flips = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_REGIONS),
                st.integers(0, 1 << 16),  # frame within the region
                st.booleans(),  # at a masked bit, where the frame has one
                st.integers(0, 1 << 16),  # slot and bit position
            ),
            max_size=6,
        )
    )
    return part, plan, full_coverage, draw(st.booleans()), flips, draw(st.booleans())


@pytest.fixture(scope="module")
def provisioned_parts():
    return {
        name: provision_device(build_sacha_system(device), f"eq-{name}", seed=606)
        for name, device in _PARTS.items()
    }


class TestEvaluateMatchesPerFrameReference:
    """``evaluate`` judges one buffer in one MAC fold and one masked pass;
    the per-frame reference here must reach the same verdict."""

    @given(case=_evaluate_cases())
    @example(case=("SIM-SMALL", list(range(34)), True, False, [("static", 0, True, 0)], False))
    @example(case=("SIM-MEDIUM", [7, 7], False, True, [("static", 0, False, 0)], True))
    @settings(max_examples=40, deadline=None)
    def test_verdict_matches_reference(self, provisioned_parts, case):
        part, plan, full_coverage, live, flips, retag = case
        provisioned, record = provisioned_parts[part]
        system = record.system
        key = record.mac_key.reveal()
        verifier = SachaVerifier(
            system,
            record.mac_key,
            DeterministicRng(607),
            order=ExplicitOrder(plan, skip_validation=not full_coverage),
            policy=VerifierPolicy(require_full_coverage=full_coverage),
            attest_live_state=live,
        )
        result = run_attestation(provisioned.prover, verifier, DeterministicRng(608))
        assert result.plan == plan

        mask = system.combined_mask()
        words = system.device.words_per_frame
        regions = {
            "static": system.partition.static_frame_list(),
            "application": system.partition.application_frame_list(),
            "nonce": system.partition.nonce_frame_list(),
        }
        sweep = bytearray(result.sweep)
        toggled = set()
        for region, frame_pick, at_masked, position in flips:
            frames = regions[region]
            frame = frames[frame_pick % len(frames)]
            slots = [slot for slot, index in enumerate(plan) if index == frame]
            if not slots:
                continue
            slot = slots[position % len(slots)]
            bits = [(word, bit) for word in range(words) for bit in range(32)]
            if at_masked:
                bits = [
                    (word, bit)
                    for word, bit in bits
                    if mask.is_masked(RegisterBit(frame, word, bit))
                ] or bits
            word, bit = bits[position % len(bits)]
            sweep[slot * system.device.frame_bytes + 4 * word + 3 - bit // 8] ^= (
                1 << bit % 8
            )
            toggled ^= {(slot, word, bit)}
        sweep = bytes(sweep)
        tag = result.tag
        if retag:  # the prover's tag had the flips been in its configuration
            tag = AesCmac(key).update_frames((sweep,)).finalize()

        report = verifier.evaluate(result.nonce, plan, sweep, tag)
        mac_valid, mismatched = _reference_verdict(
            verifier, key, result.nonce, plan, sweep, tag
        )
        assert report.mac_valid == mac_valid == (retag or not toggled)
        assert report.mismatched_frames == mismatched
        if not live:
            # A flip at a masked bit is register state, never a mismatch.
            assert mismatched == sorted(
                {
                    plan[slot]
                    for slot, word, bit in toggled
                    if not mask.is_masked(RegisterBit(plan[slot], word, bit))
                }
            )
        assert verifier.expected_masked_mac(result.nonce, plan) == (
            _reference_masked_mac(system, key, result.nonce, plan)
        )


class TestEvaluateEquivalence:
    """End to end on a clean and on a tampered device, the one-buffer
    ``evaluate`` reaches the per-frame reference's verdict."""

    @pytest.mark.parametrize("tamper", [False, True])
    def test_vectorized_verdict_matches_scalar(self, tamper):
        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "fastpath-eq", seed=606)
        frame = system.partition.static_frame_list()[0]
        if tamper:
            provisioned.board.fpga.memory.flip_bit(frame, 0, 0)
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(607))
        result = run_attestation(provisioned.prover, verifier, DeterministicRng(608))
        mac_valid, mismatched = _reference_verdict(
            verifier,
            record.mac_key.reveal(),
            result.nonce,
            result.plan,
            result.sweep,
            result.tag,
        )
        report = result.report
        assert report.accepted == (not tamper)
        assert report.mac_valid == mac_valid
        assert report.mismatched_frames == mismatched == ([frame] if tamper else [])
