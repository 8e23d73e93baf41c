"""Unit tests for the configuration memory."""

import pytest

from repro.errors import ConfigMemoryError, FrameAddressError
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_MEDIUM, SIM_SMALL
from repro.utils.rng import DeterministicRng


@pytest.fixture
def memory():
    return ConfigurationMemory(SIM_SMALL)


class TestFrameAccess:
    def test_blank_after_construction(self, memory):
        assert memory.read_frame(0) == bytes(SIM_SMALL.frame_bytes)

    def test_write_read_roundtrip(self, memory, rng):
        data = rng.randbytes(SIM_SMALL.frame_bytes)
        memory.write_frame(3, data)
        assert memory.read_frame(3) == data

    def test_write_does_not_leak_to_neighbours(self, memory, rng):
        memory.write_frame(3, rng.randbytes(SIM_SMALL.frame_bytes))
        assert memory.read_frame(2) == bytes(SIM_SMALL.frame_bytes)
        assert memory.read_frame(4) == bytes(SIM_SMALL.frame_bytes)

    def test_word_view(self, memory):
        memory.write_frame_words(1, [0x11223344] * SIM_SMALL.words_per_frame)
        assert memory.read_frame(1)[:4] == b"\x11\x22\x33\x44"
        assert memory.read_frame_words(1)[0] == 0x11223344

    def test_wrong_frame_size_rejected(self, memory):
        with pytest.raises(ConfigMemoryError):
            memory.write_frame(0, b"short")

    def test_out_of_range_frame(self, memory):
        with pytest.raises(FrameAddressError):
            memory.read_frame(SIM_SMALL.total_frames)
        with pytest.raises(FrameAddressError):
            memory.write_frame(-1, bytes(SIM_SMALL.frame_bytes))

    def test_write_frames_round_trips_through_read_frames(self, memory, rng):
        data = rng.randbytes(3 * SIM_SMALL.frame_bytes)
        memory.write_frames(4, data)
        assert memory.read_frames(4, 3) == data
        assert memory.read_frame(3) == memory.read_frame(7) == bytes(
            SIM_SMALL.frame_bytes
        )

    def test_write_frames_rejects_partial_frames_and_overruns(self, memory):
        size = SIM_SMALL.frame_bytes
        with pytest.raises(ConfigMemoryError, match="multiple"):
            memory.write_frames(0, bytes(size + 1))
        with pytest.raises(ConfigMemoryError, match="multiple"):
            memory.write_frames(0, b"")
        with pytest.raises(FrameAddressError):
            memory.write_frames(SIM_SMALL.total_frames - 1, bytes(2 * size))
        assert memory.snapshot() == bytes(SIM_SMALL.configuration_bytes())


class TestBitAccess:
    def test_set_get_flip(self, memory):
        memory.set_bit(0, 1, 5, 1)
        assert memory.get_bit(0, 1, 5) == 1
        memory.flip_bit(0, 1, 5)
        assert memory.get_bit(0, 1, 5) == 0

    def test_flip_changes_exactly_one_bit(self, memory, rng):
        memory.write_frame(2, rng.randbytes(SIM_SMALL.frame_bytes))
        before = memory.read_frame(2)
        memory.flip_bit(2, 0, 7)
        after = memory.read_frame(2)
        differing = sum((a ^ b).bit_count() for a, b in zip(before, after))
        assert differing == 1

    def test_bad_bit_value(self, memory):
        with pytest.raises(ConfigMemoryError):
            memory.set_bit(0, 0, 0, 2)

    def test_bad_word_or_bit_index(self, memory):
        with pytest.raises(ConfigMemoryError):
            memory.get_bit(0, SIM_SMALL.words_per_frame, 0)
        with pytest.raises(ConfigMemoryError):
            memory.get_bit(0, 0, 32)


class TestBulkOperations:
    def test_snapshot_roundtrip(self, memory, rng):
        memory.randomize(rng)
        snapshot = memory.snapshot()
        other = ConfigurationMemory(SIM_SMALL)
        other.load_snapshot(snapshot)
        assert other == memory

    def test_snapshot_size(self, memory):
        assert len(memory.snapshot()) == SIM_SMALL.configuration_bytes()

    def test_wrong_snapshot_size_rejected(self, memory):
        with pytest.raises(ConfigMemoryError):
            memory.load_snapshot(b"\x00" * 3)

    def test_zeroize_all(self, memory, rng):
        memory.randomize(rng)
        memory.zeroize()
        assert memory == ConfigurationMemory(SIM_SMALL)

    def test_zeroize_selected(self, memory, rng):
        memory.randomize(rng)
        memory.zeroize(frame_indices=[0, 1])
        assert memory.read_frame(0) == bytes(SIM_SMALL.frame_bytes)
        assert memory.read_frame(2) != bytes(SIM_SMALL.frame_bytes)

    def test_randomize_selected(self, memory, rng):
        memory.randomize(rng, frame_indices=[5])
        assert memory.read_frame(5) != bytes(SIM_SMALL.frame_bytes)
        assert memory.read_frame(6) == bytes(SIM_SMALL.frame_bytes)

    def test_copy_is_independent(self, memory, rng):
        memory.randomize(rng)
        clone = memory.copy()
        memory.flip_bit(0, 0, 0)
        assert clone != memory


class TestDiff:
    def test_no_difference(self, memory, rng):
        memory.randomize(rng)
        assert memory.differing_frames(memory.copy()) == []

    def test_single_frame_difference(self, memory, rng):
        memory.randomize(rng)
        clone = memory.copy()
        clone.flip_bit(7, 0, 0)
        assert memory.differing_frames(clone) == [7]

    def test_diff_requires_same_device(self, memory):
        with pytest.raises(ConfigMemoryError):
            memory.differing_frames(ConfigurationMemory(SIM_MEDIUM))

    def test_equality_with_non_memory(self, memory):
        assert memory != "not a memory"
