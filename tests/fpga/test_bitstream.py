"""Unit tests for the bitstream codec and loader."""

import numpy as np
import pytest

from repro.errors import BitstreamCrcError, BitstreamError
from repro.fpga.bitstream import (
    Bitstream,
    BitstreamHeader,
    BitstreamLoader,
    BitstreamWriter,
    ConfigCommand,
    ConfigRegister,
    PacketOp,
    SYNC_WORD,
    build_full_bitstream,
    build_partial_bitstream,
    type1_header,
    type2_header,
)
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_MEDIUM, SIM_SMALL
from repro.fpga.icap import Icap
from repro.utils.rng import DeterministicRng


@pytest.fixture
def random_memory(rng):
    memory = ConfigurationMemory(SIM_SMALL)
    memory.randomize(rng)
    return memory


def _fresh_icap(device=SIM_SMALL):
    return Icap(ConfigurationMemory(device))


class TestPacketHeaders:
    def test_type1_fields(self):
        header = type1_header(PacketOp.WRITE, ConfigRegister.FDRI, 81)
        assert header >> 29 == 0b001
        assert (header >> 27) & 0b11 == PacketOp.WRITE
        assert (header >> 13) & 0b11111 == ConfigRegister.FDRI
        assert header & 0x7FF == 81

    def test_type2_fields(self):
        header = type2_header(PacketOp.WRITE, 2_138_400)
        assert header >> 29 == 0b010
        assert header & ((1 << 27) - 1) == 2_138_400

    def test_count_overflow(self):
        with pytest.raises(BitstreamError):
            type1_header(PacketOp.WRITE, ConfigRegister.FDRI, 2048)
        with pytest.raises(BitstreamError):
            type2_header(PacketOp.WRITE, 1 << 27)


class TestHeader:
    def test_roundtrip(self):
        header = BitstreamHeader("my_design", "SIM-SMALL", "tag-1")
        decoded, consumed = BitstreamHeader.decode(header.encode())
        assert decoded == header
        assert consumed == len(header.encode())

    def test_bad_magic(self):
        with pytest.raises(BitstreamError):
            BitstreamHeader.decode(b"NOPE" + bytes(20))

    def test_non_utf8_field_rejected(self):
        with pytest.raises(BitstreamError, match="UTF-8"):
            BitstreamHeader.decode(b"XBIT\x00\x01\xff" + bytes(4))


class TestSerialization:
    def test_bytes_roundtrip(self, random_memory):
        bitstream = build_full_bitstream(random_memory, "design")
        parsed = Bitstream.from_bytes(bitstream.to_bytes())
        assert parsed.header == bitstream.header
        assert np.array_equal(parsed.words, bitstream.words)

    def test_unaligned_body_rejected(self):
        bitstream = build_full_bitstream(ConfigurationMemory(SIM_SMALL))
        with pytest.raises(BitstreamError):
            Bitstream.from_bytes(bitstream.to_bytes() + b"\x00")

    def test_sync_word_present(self, random_memory):
        assert SYNC_WORD in build_full_bitstream(random_memory).words

    def test_words_are_one_uint32_array(self, random_memory):
        bitstream = build_full_bitstream(random_memory)
        assert bitstream.words.dtype == np.uint32
        parsed = Bitstream.from_bytes(bitstream.to_bytes())
        assert parsed.words.dtype == np.uint32
        assert Bitstream(bitstream.header, [1, 2]).words.dtype == np.uint32

    def test_header_only_bitstream(self):
        header = BitstreamHeader("empty", "SIM-SMALL")
        parsed = Bitstream.from_bytes(header.encode())
        assert parsed.header == header
        assert len(parsed.words) == 0


class TestFullLoad:
    def test_full_bitstream_restores_memory(self, random_memory):
        bitstream = build_full_bitstream(random_memory, "design")
        icap = _fresh_icap()
        report = BitstreamLoader(icap).load(bitstream)
        assert icap.memory == random_memory
        assert report.frame_count == SIM_SMALL.total_frames
        assert report.crc_checks == 1
        assert ConfigCommand.START in report.commands

    def test_wrong_part_rejected(self, random_memory):
        bitstream = build_full_bitstream(random_memory)
        icap = _fresh_icap(SIM_MEDIUM)
        with pytest.raises(BitstreamError):
            BitstreamLoader(icap).load(bitstream)

    def test_corrupted_payload_fails_crc(self, random_memory):
        bitstream = build_full_bitstream(random_memory)
        # Flip a bit inside the FDRI payload (after the sync sequence).
        index = len(bitstream.words) // 2
        bitstream.words[index] ^= 1
        with pytest.raises(BitstreamCrcError):
            BitstreamLoader(_fresh_icap()).load(bitstream)


    def test_unknown_command_rejected(self):
        writer = BitstreamWriter(SIM_SMALL, "x")
        writer.sync().write_register(ConfigRegister.CMD, [0xDEAD])
        with pytest.raises(BitstreamError, match="unknown configuration command"):
            BitstreamLoader(_fresh_icap()).load(writer.finish())

    def test_one_bulk_icap_write_per_fdri_packet(self, random_memory, monkeypatch):
        """Each FDRI packet is one ICAP call and one memory store."""
        bitstream = build_partial_bitstream(random_memory, [1, 2, 3, 7, 8], "runs")
        icap = _fresh_icap()
        bulk_writes, stores = [], []
        write_frames = icap.write_frames
        store = icap.memory.write_frames

        def spy(frame_indices, data):
            bulk_writes.append(len(frame_indices))
            write_frames(frame_indices, data)

        def store_spy(start_index, data):
            stores.append((start_index, len(data) // SIM_SMALL.frame_bytes))
            store(start_index, data)

        monkeypatch.setattr(icap, "write_frames", spy)
        monkeypatch.setattr(icap.memory, "write_frames", store_spy)
        report = BitstreamLoader(icap).load(bitstream)
        assert report.frames_written == [1, 2, 3, 7, 8]
        assert bulk_writes == [3, 2]
        assert stores == [(1, 3), (7, 2)]
        assert icap.stats.frames_written == 5

    def test_empty_type2_write_changes_nothing(self):
        words = [
            SYNC_WORD,
            type1_header(PacketOp.WRITE, ConfigRegister.CMD, 0),
            type2_header(PacketOp.WRITE, 0),
        ]
        bitstream = Bitstream(BitstreamHeader("x", SIM_SMALL.name), words)
        report = BitstreamLoader(_fresh_icap()).load(bitstream)
        assert report.commands == []
        assert report.frames_written == []


class TestPartialLoad:
    def test_partial_touches_only_target_frames(self, random_memory):
        targets = [3, 4, 5, 10]
        bitstream = build_partial_bitstream(random_memory, targets, "partial")
        icap = _fresh_icap()
        report = BitstreamLoader(icap).load(bitstream)
        assert sorted(report.frames_written) == targets
        for frame_index in targets:
            assert icap.memory.read_frame(frame_index) == random_memory.read_frame(
                frame_index
            )
        # Frames outside the target set stay blank.
        assert icap.memory.read_frame(0) == bytes(SIM_SMALL.frame_bytes)

    def test_contiguous_runs_become_single_bursts(self, random_memory):
        bitstream = build_partial_bitstream(random_memory, range(5), "partial")
        far_writes = sum(
            1
            for word in bitstream.words
            if word >> 29 == 0b001
            and (word >> 27) & 0b11 == PacketOp.WRITE
            and (word >> 13) & 0b11111 == ConfigRegister.FAR
            and word & 0x7FF == 1
        )
        assert far_writes == 1

    def test_empty_frame_set_rejected(self, random_memory):
        with pytest.raises(BitstreamError):
            build_partial_bitstream(random_memory, [], "empty")

    def test_duplicate_indices_deduplicated(self, random_memory):
        bitstream = build_partial_bitstream(random_memory, [2, 2, 3], "dup")
        report = BitstreamLoader(_fresh_icap()).load(bitstream)
        assert sorted(report.frames_written) == [2, 3]


class TestWriterValidation:
    def test_packets_before_sync_rejected(self):
        writer = BitstreamWriter(SIM_SMALL, "x")
        with pytest.raises(BitstreamError):
            writer.write_register(ConfigRegister.CMD, [0])

    def test_wrong_frame_size_rejected(self, random_memory):
        writer = BitstreamWriter(SIM_SMALL, "x")
        writer.sync()
        with pytest.raises(BitstreamError):
            writer.write_frames(0, b"short")
        with pytest.raises(BitstreamError):
            writer.write_frames(0, bytes(SIM_SMALL.frame_bytes + 4))

    def test_idcode_mismatch_detected(self, random_memory):
        bitstream = build_full_bitstream(random_memory)
        # Patch the IDCODE payload word.
        for position, word in enumerate(bitstream.words):
            if (
                word >> 29 == 0b001
                and (word >> 27) & 0b11 == PacketOp.WRITE
                and (word >> 13) & 0b11111 == ConfigRegister.IDCODE
            ):
                bitstream.words[position + 1] ^= 0xFFFF
                break
        with pytest.raises(BitstreamError, match="IDCODE|CRC"):
            BitstreamLoader(_fresh_icap()).load(bitstream)
