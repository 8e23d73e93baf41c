"""The SRAM configuration memory of the FPGA.

The configuration memory *is* the device state in the SACHa model: the
data stored here determine the functionality of the configurable fabric,
and the whole attestation argument rests on every frame of it being
readable and writable through the ICAP.

Frames are stored as a NumPy big-endian ``>u4`` array of shape
``(total_frames, words_per_frame)``, matching the wire byte order, so
per-frame reads and whole-sweep reads are plain buffer copies with no
byte-order conversion on the hot path.  A flat byte view of the same
array serves single-frame writes and reads without a NumPy object per
frame.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.errors import ConfigMemoryError, FrameAddressError
from repro.fpga.device import DevicePart
from repro.utils.rng import DeterministicRng


class ConfigurationMemory:
    """Frame-addressable SRAM configuration memory.

    Frames are stored big-endian (``>u4``) — the wire byte order — so a
    frame's bytes are one zero-conversion ``tobytes`` away and a whole
    readback sweep is a single contiguous buffer slice.
    """

    def __init__(self, device: DevicePart) -> None:
        self._device = device
        self._total_frames = device.total_frames
        self._frame_bytes = device.frame_bytes
        self._bind(
            np.zeros((device.total_frames, device.words_per_frame), dtype=">u4")
        )

    def _bind(self, frames: np.ndarray) -> None:
        """Hold ``frames`` (C-contiguous) and its flat byte view."""
        self._frames = frames
        self._bytes = memoryview(frames).cast("B")

    @classmethod
    def from_frames(cls, device: DevicePart, frames: np.ndarray) -> "ConfigurationMemory":
        """Rebuild a memory from a stored frame array (the ``.npy`` blob)."""
        expected = (device.total_frames, device.words_per_frame)
        if frames.shape != expected:
            raise ConfigMemoryError(
                f"frame array of shape {frames.shape} does not fit "
                f"{device.name} ({expected[0]} x {expected[1]} words)"
            )
        memory = cls(device)
        memory._bind(frames.astype(">u4"))
        return memory

    @property
    def device(self) -> DevicePart:
        return self._device

    @property
    def total_frames(self) -> int:
        return self._device.total_frames

    @property
    def frame_bytes(self) -> int:
        return self._device.frame_bytes

    def _check_index(self, frame_index: int) -> None:
        if not 0 <= frame_index < self._total_frames:
            raise FrameAddressError(
                f"frame {frame_index} out of range for {self._device.name}"
            )

    # -- frame access --------------------------------------------------------

    def write_frame(self, frame_index: int, data: bytes) -> None:
        """Overwrite one frame with ``data`` (big-endian words)."""
        self._check_index(frame_index)
        size = self._frame_bytes
        if len(data) != size:
            raise ConfigMemoryError(
                f"frame data must be {size} bytes, got {len(data)}"
            )
        start = frame_index * size
        self._bytes[start : start + size] = data

    def write_frames(self, start_index: int, data: bytes) -> None:
        """Overwrite consecutive frames from ``start_index`` with ``data``.

        One slice store for the whole range — the bulk-write counterpart
        of :meth:`read_frames`.
        """
        size = self._frame_bytes
        count, partial = divmod(len(data), size)
        if count < 1 or partial:
            raise ConfigMemoryError(
                f"frame data must be a positive multiple of {size} bytes, "
                f"got {len(data)}"
            )
        self._check_index(start_index)
        self._check_index(start_index + count - 1)
        start = start_index * size
        self._bytes[start : start + count * size] = data

    def read_frame(self, frame_index: int) -> bytes:
        """Read one frame as big-endian word bytes."""
        self._check_index(frame_index)
        start = frame_index * self._frame_bytes
        return self._bytes[start : start + self._frame_bytes].tobytes()

    def read_frames(self, start_index: int, count: int) -> bytes:
        """``count`` consecutive frames as one contiguous byte buffer.

        One copy for the whole range — the bulk-readback primitive.
        """
        if count < 1:
            raise ConfigMemoryError(f"frame count must be positive, got {count}")
        self._check_index(start_index)
        self._check_index(start_index + count - 1)
        return self._frames[start_index : start_index + count].tobytes()

    def frames_array(self) -> np.ndarray:
        """The raw ``(total_frames, words_per_frame)`` big-endian array.

        Zero-copy view for bulk operations (mask application, vectorized
        golden comparison).  Treat as read-only unless you *are* the
        memory's owner.
        """
        return self._frames

    def read_frame_words(self, frame_index: int) -> List[int]:
        self._check_index(frame_index)
        return [int(word) for word in self._frames[frame_index]]

    def write_frame_words(self, frame_index: int, words: Iterable[int]) -> None:
        words = list(words)
        if len(words) != self._device.words_per_frame:
            raise ConfigMemoryError(
                f"frame needs {self._device.words_per_frame} words, got {len(words)}"
            )
        self._check_index(frame_index)
        self._frames[frame_index] = np.array(words, dtype=np.uint32)

    # -- bit-level access (tamper injection, register overlay) ---------------

    def get_bit(self, frame_index: int, word_index: int, bit_index: int) -> int:
        self._check_index(frame_index)
        self._check_bit(word_index, bit_index)
        return int(self._frames[frame_index, word_index] >> bit_index) & 1

    def set_bit(
        self, frame_index: int, word_index: int, bit_index: int, value: int
    ) -> None:
        self._check_index(frame_index)
        self._check_bit(word_index, bit_index)
        if value not in (0, 1):
            raise ConfigMemoryError(f"bit value must be 0 or 1, got {value}")
        word = int(self._frames[frame_index, word_index])
        if value:
            word |= 1 << bit_index
        else:
            word &= ~(1 << bit_index)
        self._frames[frame_index, word_index] = word

    def flip_bit(self, frame_index: int, word_index: int, bit_index: int) -> None:
        """Invert one configuration bit (the unit of tampering)."""
        current = self.get_bit(frame_index, word_index, bit_index)
        self.set_bit(frame_index, word_index, bit_index, current ^ 1)

    def _check_bit(self, word_index: int, bit_index: int) -> None:
        if not 0 <= word_index < self._device.words_per_frame:
            raise ConfigMemoryError(f"word index {word_index} out of range")
        if not 0 <= bit_index < 32:
            raise ConfigMemoryError(f"bit index {bit_index} out of range")

    # -- bulk operations -----------------------------------------------------

    def snapshot(self) -> bytes:
        """The whole configuration memory as bytes, frame-major."""
        return self._frames.tobytes()

    def load_snapshot(self, data: bytes) -> None:
        expected = self._device.configuration_bytes()
        if len(data) != expected:
            raise ConfigMemoryError(
                f"snapshot must be {expected} bytes, got {len(data)}"
            )
        self._bind(
            np.frombuffer(data, dtype=">u4")
            .reshape(self._device.total_frames, self._device.words_per_frame)
            .copy()
        )

    def zeroize(self, frame_indices: Optional[Iterable[int]] = None) -> None:
        """Clear all frames, or just the given ones."""
        if frame_indices is None:
            self._frames[:] = 0
            return
        for frame_index in frame_indices:
            self._check_index(frame_index)
            self._frames[frame_index] = 0

    def randomize(
        self, rng: DeterministicRng, frame_indices: Optional[Iterable[int]] = None
    ) -> None:
        """Fill frames with deterministic pseudo-random content."""
        indices = (
            range(self._device.total_frames) if frame_indices is None else frame_indices
        )
        for frame_index in indices:
            self.write_frame(frame_index, rng.randbytes(self._device.frame_bytes))

    def copy(self) -> "ConfigurationMemory":
        clone = ConfigurationMemory(self._device)
        clone._bind(self._frames.copy())
        return clone

    def differing_frames(self, other: "ConfigurationMemory") -> List[int]:
        """Indices of frames whose content differs from ``other``."""
        if other.device is not self._device and other.device != self._device:
            raise ConfigMemoryError(
                f"cannot diff {self._device.name} against {other.device.name}"
            )
        mismatch = np.any(self._frames != other._frames, axis=1)
        return [int(index) for index in np.nonzero(mismatch)[0]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfigurationMemory):
            return NotImplemented
        return self._device == other.device and bool(
            np.array_equal(self._frames, other._frames)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable container
