"""Unit tests for MTU-aware batch packing and the batched wire messages."""

import numpy as np
import pytest

from repro.errors import WireFormatError
from repro.net import batch
from repro.net.arq import ARQ_OVERHEAD_BYTES
from repro.net.batch import (
    arq_payload_capacity,
    contiguous_runs,
    fragment_readback_data,
    frames_per_config_batch,
    frames_per_response_fragment,
    max_readback_indices,
    pack_config_commands,
    pack_readback_plan,
)
from repro.net.ethernet import MAX_PAYLOAD
from repro.net.messages import (
    IcapConfigBatchCommand,
    IcapReadbackBatchCommand,
    ReadbackBatchResponse,
    decode_command,
    decode_response,
)

FRAME_BYTES = 324  # XC6VLX240T: 81 words x 4 bytes


class TestCapacityMath:
    def test_capacity_subtracts_arq_overhead(self):
        assert arq_payload_capacity() == MAX_PAYLOAD - ARQ_OVERHEAD_BYTES

    def test_tiny_mtu_rejected(self):
        with pytest.raises(WireFormatError):
            arq_payload_capacity(ARQ_OVERHEAD_BYTES + 4)

    def test_packed_commands_fit_one_arq_payload(self):
        """The whole point: no helper may emit an over-MTU message."""
        plan = list(range(1000))
        for command in pack_readback_plan(plan, batch_frames=10_000):
            assert len(command.encode()) <= arq_payload_capacity()
        frames = np.zeros((20, FRAME_BYTES), dtype=np.uint8)
        for payload in pack_config_commands(range(20), frames):
            assert len(payload) <= arq_payload_capacity()
        for fragment in fragment_readback_data(
            0, bytes(FRAME_BYTES * 50), FRAME_BYTES
        ):
            assert len(fragment.encode()) <= arq_payload_capacity()

    def test_at_least_one_frame_everywhere(self):
        huge_frame = arq_payload_capacity() * 3
        assert frames_per_response_fragment(huge_frame) == 1
        assert frames_per_config_batch(huge_frame) == 1
        assert max_readback_indices() >= 1


#: Each header constant, with the batch message of ``n`` frames whose
#: encoding it heads and the bytes each frame adds.
HEADERS = {
    "READBACK_BATCH_HEADER_BYTES": (
        lambda n: IcapReadbackBatchCommand(0, tuple(range(n))),
        4,
    ),
    "CONFIG_BATCH_HEADER_BYTES": (
        lambda n: IcapConfigBatchCommand(tuple(range(n)), bytes(n * FRAME_BYTES)),
        4 + FRAME_BYTES,
    ),
    "BATCH_RESPONSE_HEADER_BYTES": (
        lambda n: ReadbackBatchResponse(0, n, bytes(n * FRAME_BYTES)),
        FRAME_BYTES,
    ),
}


class TestHeaderConstants:
    def test_every_header_constant_is_checked(self):
        names = [name for name in vars(batch) if name.endswith("_HEADER_BYTES")]
        assert sorted(names) == sorted(HEADERS)

    @pytest.mark.parametrize("name", sorted(HEADERS))
    def test_header_is_the_encoding_less_its_frames(self, name):
        message_of, per_frame = HEADERS[name]
        for frames in (1, 2):
            encoded = message_of(frames).encode()
            assert len(encoded) - frames * per_frame == getattr(batch, name)


class TestPackReadbackPlan:
    def test_round_trips_and_preserves_plan_order(self):
        plan = [5, 6, 7, 100, 101, 3]
        commands = pack_readback_plan(plan, batch_frames=4)
        assert [c.base_slot for c in commands] == [0, 4]
        rebuilt = [
            index for c in commands for index in c.frame_indices
        ]
        assert rebuilt == plan
        for command in commands:
            assert decode_command(command.encode()) == command

    def test_batch_size_clamped_to_mtu(self):
        plan = list(range(2000))
        commands = pack_readback_plan(plan, batch_frames=100_000)
        assert all(
            len(c.frame_indices) <= max_readback_indices() for c in commands
        )

    def test_bad_batch_size_rejected(self):
        with pytest.raises(WireFormatError):
            pack_readback_plan([1, 2], batch_frames=0)


class TestPackConfigCommands:
    def test_round_trips_and_preserves_order(self):
        indices = [40, 3, 17, 8, 0, 25, 6, 31, 12]
        frames = np.array(
            [[i] * FRAME_BYTES for i in indices], dtype=np.uint8
        )
        payloads = pack_config_commands(indices, frames)
        assert len(payloads) > 1  # 324-byte frames: 4 per MTU payload
        batches = [decode_command(payload) for payload in payloads]
        assert [i for b in batches for i in b.frame_indices] == indices
        assert b"".join(b.data for b in batches) == frames.tobytes()
        for batch, payload in zip(batches, payloads):
            # Byte-identical to the message class's own encoder.
            assert batch.encode() == payload

    def test_unequal_frame_sizes_rejected(self):
        with pytest.raises(WireFormatError):
            pack_config_commands(
                [0, 1], [np.zeros(8, np.uint8), np.zeros(9, np.uint8)]
            )
        with pytest.raises(WireFormatError):
            pack_config_commands([0, 1], np.zeros((3, 8), np.uint8))

    def test_empty_input_is_empty_output(self):
        assert pack_config_commands([], np.zeros((0, FRAME_BYTES), np.uint8)) == []

    def test_out_of_range_index_rejected(self):
        with pytest.raises(WireFormatError):
            pack_config_commands([1 << 32], np.zeros((1, 8), np.uint8))


class TestFragmentReadbackData:
    def test_fragments_cover_data_with_continuing_slots(self):
        total = 11
        data = bytes(range(256)) * ((total * FRAME_BYTES) // 256 + 1)
        data = data[: total * FRAME_BYTES]
        fragments = fragment_readback_data(7, data, FRAME_BYTES)
        assert fragments[0].base_slot == 7
        assert sum(f.frame_count for f in fragments) == total
        slots = [f.base_slot for f in fragments]
        counts = [f.frame_count for f in fragments]
        for previous, count, current in zip(slots, counts, slots[1:]):
            assert current == previous + count
        assert b"".join(f.data for f in fragments) == data
        for fragment in fragments:
            assert decode_response(fragment.encode()) == fragment

    def test_ragged_buffer_rejected(self):
        with pytest.raises(WireFormatError):
            fragment_readback_data(0, bytes(FRAME_BYTES + 1), FRAME_BYTES)


class TestContiguousRuns:
    def test_sweep_collapses_to_ranges(self):
        assert contiguous_runs([3, 4, 5, 9, 10, 20]) == [
            range(3, 6),
            range(9, 11),
            range(20, 21),
        ]

    def test_empty_and_single(self):
        assert contiguous_runs([]) == []
        assert contiguous_runs([7]) == [range(7, 8)]


class TestBatchMessageEdges:
    def test_errors_name_the_offending_opcode(self):
        with pytest.raises(WireFormatError, match="ICAP_readback_batch"):
            IcapReadbackBatchCommand(0, (1 << 32,)).encode()
        with pytest.raises(WireFormatError, match="ICAP_config_batch"):
            IcapConfigBatchCommand((0, 1), bytes(9)).encode()

    def test_empty_batch_rejected(self):
        with pytest.raises(WireFormatError):
            IcapReadbackBatchCommand(0, ()).encode()

    def test_response_count_range(self):
        with pytest.raises(WireFormatError):
            ReadbackBatchResponse(0, 0, b"").encode()
        with pytest.raises(WireFormatError):
            ReadbackBatchResponse(-1, 1, bytes(4)).encode()
