"""The array-backed register file behaves as the per-bit dict it replaced.

``ReferenceRegisterFile`` is that dict-of-dicts implementation, kept
here as the reference: one dict per frame keyed by :class:`RegisterBit`,
a per-bit declaration loop, a scramble that draws ``randint(0, 1)`` per
bit in sorted order, and an overlay that patches one 32-bit word per
bit.  Random sequences of declarations, forgets, scrambles and sets
drive both files side by side; after every step they must hold the same
positions and values and read back the same bytes.
"""

from __future__ import annotations

import copy
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigMemoryError
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_SMALL
from repro.fpga.icap import Icap
from repro.fpga.registers import LiveRegisterFile, RegisterBit
from repro.utils.rng import DeterministicRng

TOTAL = SIM_SMALL.total_frames
WORDS = SIM_SMALL.words_per_frame


class ReferenceRegisterFile:
    """The per-bit register file: one dict of bits per frame."""

    def __init__(self, device):
        self._device = device
        self._frames: Dict[int, Dict[RegisterBit, int]] = {}
        self._count = 0

    def declare(self, bits, initial=0):
        if initial not in (0, 1):
            raise ConfigMemoryError(f"initial value must be 0 or 1, got {initial}")
        for bit in bits:
            bit.validate(self._device)
            frame = self._frames.setdefault(bit.frame_index, {})
            if bit in frame:
                raise ConfigMemoryError(f"register bit {bit} declared twice")
            frame[bit] = initial
            self._count += 1

    def forget_frame(self, frame_index):
        dropped = self._frames.pop(frame_index, None)
        if dropped:
            self._count -= len(dropped)

    def forget_frames(self, frame_indices):
        for frame_index in frame_indices:
            self.forget_frame(frame_index)

    def __len__(self):
        return self._count

    def __iter__(self):
        items = [
            (bit, value)
            for frame in self._frames.values()
            for bit, value in frame.items()
        ]
        return iter(sorted(items))

    def positions(self):
        return sorted(bit for frame in self._frames.values() for bit in frame)

    def get(self, bit):
        try:
            return self._frames[bit.frame_index][bit]
        except KeyError:
            raise ConfigMemoryError(f"register bit {bit} is not declared") from None

    def set(self, bit, value):
        if value not in (0, 1):
            raise ConfigMemoryError(f"register value must be 0 or 1, got {value}")
        frame = self._frames.get(bit.frame_index)
        if frame is None or bit not in frame:
            raise ConfigMemoryError(f"register bit {bit} is not declared")
        frame[bit] = value

    def scramble(self, rng):
        for bit in self.positions():
            self._frames[bit.frame_index][bit] = rng.randint(0, 1)

    def bits_in_frame(self, frame_index):
        frame = self._frames.get(frame_index)
        if not frame:
            return []
        return sorted(frame.items())

    def overlay_frame(self, frame_index, frame_data):
        frame = self._frames.get(frame_index)
        if not frame:
            return frame_data
        words = bytearray(frame_data)
        for bit, value in frame.items():
            offset = bit.word_index * 4
            word = int.from_bytes(words[offset : offset + 4], "big")
            if value:
                word |= 1 << bit.bit_index
            else:
                word &= ~(1 << bit.bit_index)
            words[offset : offset + 4] = word.to_bytes(4, "big")
        return bytes(words)


in_range_bits = st.builds(
    RegisterBit,
    frame_index=st.integers(0, TOTAL - 1),
    word_index=st.integers(0, WORDS - 1),
    bit_index=st.integers(0, 31),
)
#: Mostly valid positions, some just outside one of the three ranges.
any_bits = st.one_of(
    in_range_bits,
    in_range_bits,
    in_range_bits,
    st.builds(
        RegisterBit,
        frame_index=st.integers(-2, TOTAL + 2),
        word_index=st.integers(-1, WORDS + 1),
        bit_index=st.integers(-1, 33),
    ),
)
frame_indices = st.integers(-1, TOTAL)
operations = st.one_of(
    st.tuples(
        st.just("declare"),
        st.lists(any_bits, max_size=12),
        st.sampled_from([0, 1]),
    ),
    st.tuples(st.just("forget_frame"), frame_indices),
    st.tuples(st.just("forget_frames"), st.lists(frame_indices, max_size=8)),
    st.tuples(st.just("scramble"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("set"), any_bits, st.sampled_from([0, 1])),
)
ranges = st.tuples(st.integers(0, TOTAL - 1), st.integers(1, TOTAL)).map(
    lambda pair: (pair[0], min(pair[1], TOTAL - pair[0]))
)


def _apply(live, reference, operation):
    """Run one operation on both files; both must raise the same error."""
    kind = operation[0]
    if kind == "scramble":
        ours, theirs = DeterministicRng(operation[1]), DeterministicRng(operation[1])
        live.scramble(ours)
        reference.scramble(theirs)
        assert ours.random() == theirs.random()  # same draws consumed
        return reference
    if kind == "declare":
        before = list(live)
        snapshot = copy.deepcopy(reference)
        try:
            reference.declare(operation[1], operation[2])
        except ConfigMemoryError as error:
            with pytest.raises(ConfigMemoryError) as raised:
                live.declare(operation[1], operation[2])
            assert str(raised.value) == str(error)
            # A rejected declaration declares nothing; the per-bit loop
            # kept the bits before the bad one, so compare with the
            # state before the call.
            assert list(live) == before
            return snapshot
        live.declare(operation[1], operation[2])
        return reference
    if kind == "set":
        try:
            reference.set(operation[1], operation[2])
        except ConfigMemoryError as error:
            with pytest.raises(ConfigMemoryError) as raised:
                live.set(operation[1], operation[2])
            assert str(raised.value) == str(error)
        else:
            live.set(operation[1], operation[2])
            assert live.get(operation[1]) == operation[2]
        return reference
    getattr(live, kind)(operation[1])
    getattr(reference, kind)(operation[1])
    return reference


@given(
    steps=st.lists(operations, min_size=1, max_size=14),
    memory_seed=st.integers(0, 2**32 - 1),
    readbacks=st.lists(ranges, min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_register_file_matches_per_bit_reference(steps, memory_seed, readbacks):
    live = LiveRegisterFile(SIM_SMALL)
    reference = ReferenceRegisterFile(SIM_SMALL)
    memory = ConfigurationMemory(SIM_SMALL)
    memory.randomize(DeterministicRng(memory_seed))
    icap = Icap(memory, live)
    for operation in steps:
        reference = _apply(live, reference, operation)
        assert live.positions() == reference.positions()
        assert list(live) == list(reference)
        assert len(live) == len(reference)
        for start, count in readbacks:
            expected = b"".join(
                reference.overlay_frame(index, memory.read_frame(index))
                for index in range(start, start + count)
            )
            assert icap.readback_range(start, count) == expected
    for index in range(TOTAL):
        frame = memory.read_frame(index)
        assert live.overlay_frame(index, frame) == reference.overlay_frame(index, frame)
        assert live.bits_in_frame(index) == reference.bits_in_frame(index)
        for bit, value in reference.bits_in_frame(index):
            assert live.get(bit) == value


@pytest.mark.parametrize(
    "bits, message",
    [
        # The first bad bit in declaration order decides the error.
        ([RegisterBit(1, 0, 0), RegisterBit(TOTAL, 0, 0)], "frame 34 out of range"),
        ([RegisterBit(1, 0, 0), RegisterBit(1, 0, 0), RegisterBit(0, WORDS, 0)], "declared twice"),
        ([RegisterBit(0, WORDS, 0), RegisterBit(1, 0, 0), RegisterBit(1, 0, 0)], "word 4 out of range"),
        ([RegisterBit(2, 1, 32)], "register bit 32 out of range"),
        # Word 4 of frame 0 would alias word 0 of frame 1 once flattened.
        ([RegisterBit(1, 0, 0), RegisterBit(0, WORDS, 0)], "word 4 out of range"),
    ],
)
def test_rejected_declaration_declares_nothing(bits, message):
    live = LiveRegisterFile(SIM_SMALL)
    live.declare([RegisterBit(3, 0, 0)])
    with pytest.raises(ConfigMemoryError, match=message):
        live.declare(bits)
    assert live.positions() == [RegisterBit(3, 0, 0)]
