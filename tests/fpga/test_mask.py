"""Unit tests for Msk generation and application."""

import pytest

from repro.errors import ConfigMemoryError
from repro.fpga.device import SIM_MEDIUM, SIM_SMALL
from repro.fpga.mask import MaskFile, mask_from_registers
from repro.fpga.registers import LiveRegisterFile, RegisterBit
from repro.utils.rng import DeterministicRng

BITS = [RegisterBit(0, 0, 3), RegisterBit(0, 1, 17), RegisterBit(2, 3, 0)]


@pytest.fixture
def mask():
    mask_file = MaskFile(SIM_SMALL)
    mask_file.set_positions(BITS)
    return mask_file


class TestGeneration:
    def test_masked_bit_count(self, mask):
        assert mask.masked_bit_count() == 3

    def test_is_masked(self, mask):
        assert mask.is_masked(BITS[0])
        assert not mask.is_masked(RegisterBit(0, 0, 4))

    def test_from_register_file(self):
        registers = LiveRegisterFile(SIM_SMALL)
        registers.declare(BITS)
        mask_file = mask_from_registers(SIM_SMALL, registers)
        assert all(mask_file.is_masked(bit) for bit in BITS)

    def test_frame_mask_bytes(self, mask):
        frame0 = mask.frame_mask(0)
        word0 = int.from_bytes(frame0[0:4], "big")
        assert word0 == 1 << 3


class TestApplication:
    def test_masked_bits_cleared(self, mask):
        ones = b"\xff" * SIM_SMALL.frame_bytes
        masked = mask.apply_to_frame(0, ones)
        word0 = int.from_bytes(masked[0:4], "big")
        assert (word0 >> 3) & 1 == 0
        assert (word0 >> 4) & 1 == 1  # unmasked bits untouched

    def test_unmasked_frame_unchanged(self, mask, rng):
        data = rng.randbytes(SIM_SMALL.frame_bytes)
        assert mask.apply_to_frame(1, data) == data

    def test_application_is_idempotent(self, mask, rng):
        data = rng.randbytes(SIM_SMALL.frame_bytes)
        once = mask.apply_to_frame(0, data)
        assert mask.apply_to_frame(0, once) == once

    def test_mask_equalizes_register_noise(self, mask, rng):
        """Two readbacks differing only at masked positions compare equal
        after masking — the property the verifier relies on."""
        base = bytearray(rng.randbytes(SIM_SMALL.frame_bytes))
        noisy = bytearray(base)
        word = int.from_bytes(noisy[0:4], "big") ^ (1 << 3)
        noisy[0:4] = word.to_bytes(4, "big")
        assert mask.apply_to_frame(0, bytes(base)) == mask.apply_to_frame(
            0, bytes(noisy)
        )

    def test_wrong_size_rejected(self, mask):
        with pytest.raises(ConfigMemoryError):
            mask.apply_to_frame(0, b"short")


class TestUnion:
    def test_union_covers_both(self, mask):
        other = MaskFile(SIM_SMALL)
        extra = RegisterBit(5, 0, 9)
        other.set_positions([extra])
        combined = mask.union(other)
        assert combined.masked_bit_count() == 4
        assert combined.is_masked(extra)
        assert combined.is_masked(BITS[0])

    def test_union_requires_same_device(self, mask):
        with pytest.raises(ConfigMemoryError):
            mask.union(MaskFile(SIM_MEDIUM))
