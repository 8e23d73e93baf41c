"""Unit tests for the ICAP model."""

import pytest

from repro.core.protocol import attest
from repro.errors import IcapError
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_SMALL
from repro.fpga.icap import (
    READBACK_OVERHEAD_WORDS,
    WRITE_OVERHEAD_WORDS,
    Icap,
)
from repro.fpga.registers import LiveRegisterFile, RegisterBit
from repro.utils.rng import DeterministicRng


@pytest.fixture
def icap():
    memory = ConfigurationMemory(SIM_SMALL)
    registers = LiveRegisterFile(SIM_SMALL)
    return Icap(memory, registers)


class TestWrite:
    def test_write_lands_in_memory(self, icap, rng):
        data = rng.randbytes(SIM_SMALL.frame_bytes)
        icap.write_frame(2, data)
        assert icap.memory.read_frame(2) == data

    def test_write_discards_frame_register_state(self, icap, rng):
        icap.registers.declare([RegisterBit(2, 0, 0)])
        icap.write_frame(2, rng.randbytes(SIM_SMALL.frame_bytes))
        assert icap.registers.bits_in_frame(2) == []

    def test_write_protection(self, icap, rng):
        icap.protect_frames([5])
        with pytest.raises(IcapError):
            icap.write_frame(5, rng.randbytes(SIM_SMALL.frame_bytes))
        icap.write_frame(4, rng.randbytes(SIM_SMALL.frame_bytes))


class TestReadback:
    def test_readback_returns_config(self, icap, rng):
        data = rng.randbytes(SIM_SMALL.frame_bytes)
        icap.write_frame(1, data)
        assert icap.readback_frame(1) == data

    def test_readback_includes_live_registers(self, icap, rng):
        """The central complication: readback is config + register state."""
        bit = RegisterBit(1, 0, 0)
        icap.write_frame(1, bytes(SIM_SMALL.frame_bytes))
        icap.registers.declare([bit], initial=1)
        data = icap.readback_frame(1)
        assert int.from_bytes(data[0:4], "big") & 1 == 1

    def test_readback_covers_protected_frames(self, icap, rng):
        """Write-protection never hides a frame from readback — the whole
        memory must be attestable (Figure 4)."""
        icap.protect_frames([0])
        assert icap.readback_frame(0) == bytes(SIM_SMALL.frame_bytes)

    def test_readback_all_order_and_count(self, icap):
        frames = icap.readback_all()
        assert len(frames) == SIM_SMALL.total_frames


class TestCycleAccounting:
    def test_write_stats(self, icap, rng):
        icap.write_frame(0, rng.randbytes(SIM_SMALL.frame_bytes))
        assert icap.stats.frames_written == 1
        assert icap.stats.words_written == (
            SIM_SMALL.words_per_frame + WRITE_OVERHEAD_WORDS
        )

    def test_readback_stats(self, icap):
        icap.readback_frame(0)
        icap.readback_frame(1)
        assert icap.stats.frames_read == 2
        assert icap.stats.words_read == 2 * (
            SIM_SMALL.words_per_frame + READBACK_OVERHEAD_WORDS
        )

    def test_cycles_per_frame(self, icap):
        assert icap.write_cycles_per_frame() == (
            SIM_SMALL.words_per_frame + WRITE_OVERHEAD_WORDS
        )
        assert icap.readback_cycles_per_frame() == (
            SIM_SMALL.words_per_frame + READBACK_OVERHEAD_WORDS
        )

    def test_frames_read_exact_over_many_reads(self, icap):
        reads = 266
        for frame_index in range(reads):
            icap.readback_frame(frame_index % SIM_SMALL.total_frames)
        assert icap.stats.frames_read == reads
        assert icap.stats.words_read == reads * icap.readback_cycles_per_frame()

    def test_frames_read_exact_across_attestations(
        self, provisioned_small, verifier_small
    ):
        """A board attested again and again counts every frame it read."""
        device, _ = provisioned_small
        stats = device.board.fpga.icap.stats
        frames_read = stats.frames_read
        runs = 8
        for run in range(runs):
            assert attest(device.prover, verifier_small, DeterministicRng(run)).accepted
        assert stats.frames_read - frames_read == runs * SIM_SMALL.total_frames
