"""Mask (``Msk``) files.

Readback data contains live register values at storage-element positions
(see ``repro.fpga.registers``); the verifier must ignore those bits when
comparing readback against the golden bitstream.  The Xilinx tools emit a
``.msk`` file alongside each bitstream for exactly this purpose; this
module generates the equivalent from a design's declared register map and
applies it (Section 6.1: "we apply the Msk on the side of the Vrf").

Convention: a mask bit of **1** means *ignore this bit* (matches the
Xilinx readback-verify convention).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import ConfigMemoryError
from repro.fpga.device import DevicePart
from repro.fpga.registers import LiveRegisterFile, RegisterBit


class MaskFile:
    """Per-frame bit mask over the whole configuration memory.

    The complement (``keep`` bits) is cached as a big-endian array so
    applying the mask — per frame or over a whole sweep — is a single
    vectorized AND with no per-call table rebuilds.
    """

    def __init__(self, device: DevicePart) -> None:
        self._device = device
        self._bits = np.zeros(
            (device.total_frames, device.words_per_frame), dtype=">u4"
        )
        self._keep: Optional[np.ndarray] = None  # cached ~mask, lazily built

    @property
    def device(self) -> DevicePart:
        return self._device

    def _keep_bits(self) -> np.ndarray:
        """Cached complement of the mask (1 = compare this bit)."""
        if self._keep is None:
            self._keep = np.bitwise_not(self._bits)
        return self._keep

    def set_positions(self, positions: Iterable[RegisterBit]) -> None:
        """Mark the given bit positions as masked."""
        for position in positions:
            position.validate(self._device)
            self._bits[position.frame_index, position.word_index] |= np.uint32(
                1 << position.bit_index
            )
        self._keep = None

    def masked_bit_count(self) -> int:
        """Total number of masked bits."""
        return int(sum(int(word).bit_count() for word in self._bits.flat if word))

    def is_masked(self, position: RegisterBit) -> bool:
        position.validate(self._device)
        word = int(self._bits[position.frame_index, position.word_index])
        return bool((word >> position.bit_index) & 1)

    def frame_mask(self, frame_index: int) -> bytes:
        if not 0 <= frame_index < self._device.total_frames:
            raise ConfigMemoryError(f"frame {frame_index} out of range")
        return self._bits[frame_index].tobytes()

    def apply_to_frame(self, frame_index: int, data: bytes) -> bytes:
        """Clear every masked bit in one frame's data."""
        if len(data) != self._device.frame_bytes:
            raise ConfigMemoryError(
                f"frame data must be {self._device.frame_bytes} bytes, "
                f"got {len(data)}"
            )
        keep = self._keep_bits()[frame_index]
        words = np.frombuffer(data, dtype=">u4")
        # numpy bitwise ops return native byte order; cast back before
        # serializing so the wire order is preserved.
        return (words & keep).astype(">u4").tobytes()

    def apply_to_sweep(
        self, frames: np.ndarray, frame_indices: Sequence[int]
    ) -> np.ndarray:
        """Mask a whole readback sweep in one vectorized AND.

        ``frames`` is a ``(len(frame_indices), words_per_frame)`` array in
        readback order; rows are masked with the mask rows addressed by
        ``frame_indices``.
        """
        if frames.shape != (len(frame_indices), self._device.words_per_frame):
            raise ConfigMemoryError(
                f"sweep shape {frames.shape} does not match "
                f"{len(frame_indices)} frames of "
                f"{self._device.words_per_frame} words"
            )
        indices = np.asarray(frame_indices, dtype=np.intp)
        return frames & self._keep_bits()[indices]

    def freeze(self) -> None:
        """Build the keep-bit cache now, before the mask is shared.

        A mask shared by many devices (the artifact cache hands one
        combined mask to every device of a part) should not build state
        on first use; freezing makes every later call read-only.
        """
        self._keep_bits()

    def bits_array(self) -> np.ndarray:
        """The raw ``(total_frames, words_per_frame)`` mask-bit array.

        Zero-copy view for serialization; treat as read-only.
        """
        return self._bits

    def union(self, other: "MaskFile") -> "MaskFile":
        """Combine two masks (bits masked in either)."""
        if other.device != self._device:
            raise ConfigMemoryError("cannot combine masks for different devices")
        combined = MaskFile(self._device)
        combined._bits = (self._bits | other._bits).astype(">u4")
        return combined


def mask_from_registers(device: DevicePart, registers: LiveRegisterFile) -> MaskFile:
    """Generate the ``Msk`` for a design's declared storage elements."""
    mask = MaskFile(device)
    mask.set_positions(registers.positions())
    return mask
