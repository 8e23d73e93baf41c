"""Property-based tests for the FPGA substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.bitstream import BitstreamLoader, build_partial_bitstream
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_SMALL
from repro.fpga.icap import Icap
from repro.fpga.mask import MaskFile
from repro.fpga.registers import LiveRegisterFile, RegisterBit
from repro.utils.rng import DeterministicRng

FRAME_BYTES = SIM_SMALL.frame_bytes
TOTAL = SIM_SMALL.total_frames

frame_data = st.binary(min_size=FRAME_BYTES, max_size=FRAME_BYTES)
frame_indices = st.integers(min_value=0, max_value=TOTAL - 1)
register_bits = st.builds(
    RegisterBit,
    frame_index=frame_indices,
    word_index=st.integers(0, SIM_SMALL.words_per_frame - 1),
    bit_index=st.integers(0, 31),
)


class TestConfigMemoryProperties:
    @given(writes=st.lists(st.tuples(frame_indices, frame_data), max_size=20))
    @settings(max_examples=40)
    def test_last_write_wins(self, writes):
        memory = ConfigurationMemory(SIM_SMALL)
        last = {}
        for index, data in writes:
            memory.write_frame(index, data)
            last[index] = data
        for index, data in last.items():
            assert memory.read_frame(index) == data

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_snapshot_roundtrip(self, seed):
        memory = ConfigurationMemory(SIM_SMALL)
        memory.randomize(DeterministicRng(seed))
        restored = ConfigurationMemory(SIM_SMALL)
        restored.load_snapshot(memory.snapshot())
        assert restored == memory

    @given(index=frame_indices, word=st.integers(0, SIM_SMALL.words_per_frame - 1),
           bit=st.integers(0, 31))
    @settings(max_examples=40)
    def test_double_flip_is_identity(self, index, word, bit):
        memory = ConfigurationMemory(SIM_SMALL)
        memory.randomize(DeterministicRng(1))
        before = memory.snapshot()
        memory.flip_bit(index, word, bit)
        memory.flip_bit(index, word, bit)
        assert memory.snapshot() == before

    @given(
        rebind=st.sampled_from(["copy", "load_snapshot", "from_frames"]),
        index=frame_indices,
        data=frame_data,
    )
    @settings(max_examples=30)
    def test_frame_writes_follow_a_rebound_array(self, rebind, index, data):
        """Single-frame writes land in the memory's current frame array."""
        source = ConfigurationMemory(SIM_SMALL)
        source.randomize(DeterministicRng(index))
        before = source.snapshot()
        if rebind == "copy":
            memory = source.copy()
        elif rebind == "from_frames":
            memory = ConfigurationMemory.from_frames(SIM_SMALL, source.frames_array())
        else:
            memory = ConfigurationMemory(SIM_SMALL)
            memory.load_snapshot(before)
        memory.write_frame(index, data)
        assert memory.read_frame(index) == data
        assert memory.frames_array()[index].tobytes() == data
        assert source.snapshot() == before


class TestRegisterFileProperties:
    @given(
        positions=st.sets(register_bits, max_size=40),
        indices=st.one_of(
            st.lists(frame_indices, max_size=2 * TOTAL),
            st.builds(range, frame_indices, frame_indices),
        ),
    )
    @settings(max_examples=60)
    def test_forget_frames_equals_one_forget_per_index(self, positions, indices):
        bulk = LiveRegisterFile(SIM_SMALL)
        single = LiveRegisterFile(SIM_SMALL)
        bulk.declare(positions)
        single.declare(positions)
        bulk.forget_frames(indices)
        for index in indices:
            single.forget_frame(index)
        assert list(bulk) == list(single)
        assert len(bulk) == len(single)


#: Runs of up to eight consecutive in-range frame indices.
consecutive_runs = st.builds(
    lambda start, length: tuple(range(start, min(start + length, TOTAL))),
    frame_indices,
    st.integers(1, 8),
)


class TestIcapProperties:
    @given(
        positions=st.sets(register_bits, max_size=40),
        indices=st.one_of(
            consecutive_runs,
            st.lists(consecutive_runs, max_size=6).map(
                lambda runs: tuple(index for run in runs for index in run)
            ),
            st.lists(frame_indices, max_size=2 * TOTAL),
            st.builds(range, frame_indices, frame_indices),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80)
    def test_write_frames_equals_one_write_per_index(self, positions, indices, seed):
        """A bulk write, however its indices run (consecutive, scattered,
        repeated, descending, a ``range``), leaves memory, registers and
        stats as one ``write_frame`` per index in order would."""
        data = DeterministicRng(seed).randbytes(len(indices) * FRAME_BYTES)
        bulk, single = (
            Icap(ConfigurationMemory(SIM_SMALL), LiveRegisterFile(SIM_SMALL))
            for _ in range(2)
        )
        for icap in (bulk, single):
            icap.memory.randomize(DeterministicRng(seed + 1))
            icap.registers.declare(positions)
        bulk.write_frames(indices, data)
        for position, index in enumerate(indices):
            single.write_frame(
                index, data[position * FRAME_BYTES : (position + 1) * FRAME_BYTES]
            )
        assert bulk.memory == single.memory
        assert list(bulk.registers) == list(single.registers)
        assert bulk.stats == single.stats


class TestBitstreamProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        targets=st.sets(frame_indices, min_size=1, max_size=TOTAL),
    )
    @settings(max_examples=25, deadline=None)
    def test_partial_bitstream_writes_exactly_target_frames(self, seed, targets):
        source = ConfigurationMemory(SIM_SMALL)
        source.randomize(DeterministicRng(seed))
        bitstream = build_partial_bitstream(source, targets, "prop")
        icap = Icap(ConfigurationMemory(SIM_SMALL))
        report = BitstreamLoader(icap).load(bitstream)
        assert sorted(report.frames_written) == sorted(targets)
        for index in range(TOTAL):
            expected = (
                source.read_frame(index) if index in targets else bytes(FRAME_BYTES)
            )
            assert icap.memory.read_frame(index) == expected


class TestMaskProperties:
    @given(
        positions=st.sets(register_bits, max_size=30),
        data=frame_data,
        index=frame_indices,
    )
    @settings(max_examples=40)
    def test_masking_is_idempotent(self, positions, data, index):
        mask = MaskFile(SIM_SMALL)
        mask.set_positions(positions)
        once = mask.apply_to_frame(index, data)
        assert mask.apply_to_frame(index, once) == once

    @given(positions=st.sets(register_bits, min_size=1, max_size=30), seed=st.integers(0, 999))
    @settings(max_examples=30)
    def test_mask_absorbs_any_register_state(self, positions, seed):
        """For every register state, masked readback equals masked config
        — the invariant the verifier's comparison stands on."""
        registers = LiveRegisterFile(SIM_SMALL)
        registers.declare(positions)
        registers.scramble(DeterministicRng(seed))
        mask = MaskFile(SIM_SMALL)
        mask.set_positions(positions)

        memory = ConfigurationMemory(SIM_SMALL)
        memory.randomize(DeterministicRng(seed + 1))
        for index in range(TOTAL):
            config = memory.read_frame(index)
            readback = registers.overlay_frame(index, config)
            assert mask.apply_to_frame(index, readback) == mask.apply_to_frame(
                index, config
            )

    @given(positions=st.sets(register_bits, max_size=30))
    @settings(max_examples=30)
    def test_masked_bit_count_equals_positions(self, positions):
        mask = MaskFile(SIM_SMALL)
        mask.set_positions(positions)
        assert mask.masked_bit_count() == len(positions)
