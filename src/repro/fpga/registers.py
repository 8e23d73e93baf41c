"""Live register state overlaid on configuration readback.

The ICAP does not read the configuration memory verbatim: readback also
captures the *current values* of the storage elements (flip-flops,
LUT-RAM) of the running design, which depend on the application state.
This is exactly the complication Section 6.1 of the paper solves with the
``Msk`` mask file.

A design declares its state bits as :class:`RegisterBit` positions; the
running application toggles them; the ICAP readback substitutes the live
value at each declared position.  The mask generator (``repro.fpga.mask``)
marks the same positions as "do not compare".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import ConfigMemoryError
from repro.fpga.device import DevicePart
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True, order=True)
class RegisterBit:
    """The configuration-memory position of one storage-element bit."""

    frame_index: int
    word_index: int
    bit_index: int

    def validate(self, device: DevicePart) -> None:
        if not 0 <= self.frame_index < device.total_frames:
            raise ConfigMemoryError(
                f"register bit frame {self.frame_index} out of range "
                f"for {device.name}"
            )
        if not 0 <= self.word_index < device.words_per_frame:
            raise ConfigMemoryError(
                f"register bit word {self.word_index} out of range"
            )
        if not 0 <= self.bit_index < 32:
            raise ConfigMemoryError(f"register bit {self.bit_index} out of range")


class LiveRegisterFile:
    """Current values of all declared storage elements of a design.

    Declarations are indexed per frame: the attestation hot path touches
    registers frame by frame (one overlay per readback, one drop per
    partial reconfiguration), so both operations must cost the declared
    bits *of that frame*, not a sweep over the whole device's register
    map.
    """

    def __init__(self, device: DevicePart) -> None:
        self._device = device
        self._frames: Dict[int, Dict[RegisterBit, int]] = {}
        self._count = 0

    @property
    def device(self) -> DevicePart:
        return self._device

    def declare(self, bits: Iterable[RegisterBit], initial: int = 0) -> None:
        """Register new storage-element positions with an initial value."""
        if initial not in (0, 1):
            raise ConfigMemoryError(f"initial value must be 0 or 1, got {initial}")
        for bit in bits:
            bit.validate(self._device)
            frame = self._frames.setdefault(bit.frame_index, {})
            if bit in frame:
                raise ConfigMemoryError(f"register bit {bit} declared twice")
            frame[bit] = initial
            self._count += 1

    def forget_frame(self, frame_index: int) -> None:
        """Drop declarations within one frame (partial reconfiguration
        replaces the logic there, so old state bits vanish)."""
        dropped = self._frames.pop(frame_index, None)
        if dropped:
            self._count -= len(dropped)

    def forget_frames(self, frame_indices: Sequence[int]) -> None:
        """:meth:`forget_frame` for every index (a multi-frame write).

        Walks whichever is shorter, the index list or the register file,
        so a 2,088-frame boot write on a part with no declared registers
        costs nothing per frame.
        """
        frames = self._frames
        if len(frame_indices) > len(frames):
            wanted = set(frame_indices)
            frame_indices = [index for index in frames if index in wanted]
        for frame_index in frame_indices:
            dropped = frames.pop(int(frame_index), None)
            if dropped:
                self._count -= len(dropped)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Tuple[RegisterBit, int]]:
        items = [
            (bit, value)
            for frame in self._frames.values()
            for bit, value in frame.items()
        ]
        return iter(sorted(items))

    def positions(self) -> List[RegisterBit]:
        return sorted(
            bit for frame in self._frames.values() for bit in frame
        )

    def get(self, bit: RegisterBit) -> int:
        try:
            return self._frames[bit.frame_index][bit]
        except KeyError:
            raise ConfigMemoryError(f"register bit {bit} is not declared") from None

    def set(self, bit: RegisterBit, value: int) -> None:
        if value not in (0, 1):
            raise ConfigMemoryError(f"register value must be 0 or 1, got {value}")
        frame = self._frames.get(bit.frame_index)
        if frame is None or bit not in frame:
            raise ConfigMemoryError(f"register bit {bit} is not declared")
        frame[bit] = value

    def scramble(self, rng: DeterministicRng) -> None:
        """Simulate application activity: randomize every live register.

        Readback taken before and after a ``scramble`` differs exactly in
        masked positions — the invariant the mask tests check.

        Draw order is the sorted position order, so the scrambled values
        for a given RNG stream do not depend on declaration order.
        """
        for bit in self.positions():
            self._frames[bit.frame_index][bit] = rng.randint(0, 1)

    def bits_in_frame(self, frame_index: int) -> List[Tuple[RegisterBit, int]]:
        frame = self._frames.get(frame_index)
        if not frame:
            return []
        return sorted(frame.items())

    def frames_with_registers(self, start: int, stop: int) -> List[int]:
        """Indices in ``[start, stop)`` of frames holding at least one
        declared register, ascending.

        Walks whichever is shorter, the range or the register file, so a
        one-frame readback costs one lookup on a part with a thousand
        register-bearing frames.
        """
        frames = self._frames
        if stop - start <= len(frames):
            return [index for index in range(start, stop) if frames.get(index)]
        return sorted(
            index for index, frame in frames.items() if frame and start <= index < stop
        )

    def overlay_frame(self, frame_index: int, frame_data: bytes) -> bytes:
        """Substitute live values into a frame's configuration bytes.

        This is what ICAP readback returns for the frame: configuration
        bits everywhere except at declared register positions, which carry
        the current application state.
        """
        frame = self._frames.get(frame_index)
        if not frame:
            return frame_data
        words = bytearray(frame_data)
        self._overlay_into(frame, words, 0)
        return bytes(words)

    def overlay_into(
        self, frame_index: int, buffer: bytearray, offset: int
    ) -> None:
        """In-place overlay for one frame at ``offset`` of a sweep buffer.

        The buffer-reuse variant behind bulk readback: no per-frame byte
        string is materialized when the frame has no declared registers,
        and at most one when it does.
        """
        frame = self._frames.get(frame_index)
        if frame:
            self._overlay_into(frame, buffer, offset)

    @staticmethod
    def _overlay_into(
        frame: Dict[RegisterBit, int], buffer: bytearray, base: int
    ) -> None:
        for bit, value in frame.items():
            offset = base + bit.word_index * 4
            word = int.from_bytes(buffer[offset : offset + 4], "big")
            if value:
                word |= 1 << bit.bit_index
            else:
                word &= ~(1 << bit.bit_index)
            buffer[offset : offset + 4] = word.to_bytes(4, "big")
