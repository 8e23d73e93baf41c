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
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

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


def register_rows(bits: Iterable[RegisterBit]) -> np.ndarray:
    """``(n, 3)`` int64 rows of (frame, word, bit), in the order given.

    The bulk form :meth:`LiveRegisterFile.declare` validates; a design
    that declares the same positions at every attestation builds it once.
    """
    bits = list(bits)
    try:
        columns = np.array(
            [
                [bit.frame_index for bit in bits],
                [bit.word_index for bit in bits],
                [bit.bit_index for bit in bits],
            ],
            dtype=np.int64,
        )
    except OverflowError:
        raise ConfigMemoryError("register bit position out of range") from None
    return np.ascontiguousarray(columns.reshape(3, len(bits)).T)


class LiveRegisterFile:
    """Current values of all declared storage elements of a design.

    A declared bit is one integer, its position in the flattened
    configuration memory (``(frame * words_per_frame + word) * 32 +
    bit``), so ascending positions are ascending (frame, word, bit).
    The file holds them as one sorted int64 array with a uint8 array of
    values beside it.

    The hot path touches registers frame by frame (one overlay per
    readback, one drop per partial reconfiguration), so a dict from
    each frame holding registers to its slice of the arrays, built on
    first use, makes a frame without registers cost one lookup.
    Forgetting a frame only notes it; the next bulk operation drops the
    noted frames' bits from the arrays in one pass.
    """

    def __init__(self, device: DevicePart) -> None:
        self._device = device
        self._total_frames = device.total_frames
        self._words = device.words_per_frame
        self._frame_bits = device.words_per_frame * 32
        self._limits = np.array(
            [device.total_frames, device.words_per_frame, 32], dtype=np.int64
        )
        self._weights = np.array([self._frame_bits, 32, 1], dtype=np.int64)
        self._positions = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.uint8)
        #: Frames forgotten since the arrays were last compacted.
        self._forgotten: List[int] = []
        #: frame -> (low, high) slice of the arrays; ``None`` until used.
        self._index: Optional[Dict[int, Tuple[int, int]]] = None

    @property
    def device(self) -> DevicePart:
        return self._device

    def _compact(self) -> None:
        """Drop the bits of forgotten frames from the arrays."""
        if not self._forgotten:
            return
        forgotten = np.array(self._forgotten, dtype=np.int64)
        self._forgotten = []
        hit = np.zeros(self._total_frames, dtype=bool)
        hit[forgotten[(forgotten >= 0) & (forgotten < self._total_frames)]] = True
        keep = ~hit[self._positions // self._frame_bits]
        self._positions = self._positions[keep]
        self._values = self._values[keep]
        self._index = None

    def _frame_index(self) -> Dict[int, Tuple[int, int]]:
        """Each frame holding registers -> its slice of the arrays."""
        index = self._index
        if index is None:
            self._compact()
            frames = self._positions // self._frame_bits
            starts = np.flatnonzero(np.diff(frames, prepend=-1)).tolist()
            stops = starts[1:] + [len(frames)]
            index = self._index = dict(zip(frames[starts].tolist(), zip(starts, stops)))
        return index

    def declare(
        self, bits: Union[Iterable[RegisterBit], np.ndarray], initial: int = 0
    ) -> None:
        """Register new storage-element positions with an initial value.

        ``bits`` is an iterable of :class:`RegisterBit`, or the rows
        :func:`register_rows` makes of one.  The declaration is checked
        as a whole before anything is stored: the first bit, in the
        order given, that is out of range or already declared (by the
        file or earlier in ``bits``) raises, and nothing is declared.
        """
        if initial not in (0, 1):
            raise ConfigMemoryError(f"initial value must be 0 or 1, got {initial}")
        rows = bits if isinstance(bits, np.ndarray) else register_rows(bits)
        if not len(rows):
            return
        if rows.min() < 0 or (rows.max(axis=0) >= self._limits).any():
            self._raise_first_error(rows)
        self._compact()
        merged = np.concatenate((self._positions, rows @ self._weights))
        order = merged.argsort(kind="stable")
        merged = merged[order]
        if (merged[1:] == merged[:-1]).any():
            self._raise_first_error(rows)
        fresh = np.full(len(rows), initial, dtype=np.uint8)
        self._positions = merged
        self._values = np.concatenate((self._values, fresh))[order]
        self._index = None

    def _raise_first_error(self, rows: np.ndarray) -> NoReturn:
        """Raise what a bit-by-bit declaration of ``rows`` would raise."""
        out_of_range = ((rows < 0) | (rows >= self._limits)).any(axis=1)
        stop = int(out_of_range.argmax()) if out_of_range.any() else len(rows)
        flat = rows[:stop] @ self._weights
        repeated = np.ones(stop, dtype=bool)
        repeated[np.unique(flat, return_index=True)[1]] = False
        self._compact()
        repeated |= np.isin(flat, self._positions)
        culprit = int(repeated.argmax()) if repeated.any() else stop
        bit = RegisterBit(*rows[culprit].tolist())
        if culprit == stop:
            bit.validate(self._device)
        raise ConfigMemoryError(f"register bit {bit} declared twice")

    def forget_frame(self, frame_index: int) -> None:
        """Drop declarations within one frame (partial reconfiguration
        replaces the logic there, so old state bits vanish)."""
        index = self._index
        if index is None:
            index = self._frame_index()
        if index.pop(frame_index, None) is not None:
            self._forgotten.append(frame_index)

    def forget_frames(self, frame_indices: Sequence[int]) -> None:
        """:meth:`forget_frame` for every index (a multi-frame write).

        Notes the indices for the next compaction, so a multi-frame write
        costs one list extend; a 2,088-frame boot write on a part with no
        declared registers notes nothing.
        """
        if len(self._positions):
            self._forgotten.extend(frame_indices)
            self._index = None

    def __len__(self) -> int:
        self._compact()
        return len(self._positions)

    def _pairs(self, low: int, high: int) -> List[Tuple[RegisterBit, int]]:
        frames, offsets = np.divmod(self._positions[low:high], self._frame_bits)
        words, bits = np.divmod(offsets, 32)
        return [
            (RegisterBit(frame, word, bit), value)
            for frame, word, bit, value in zip(
                frames.tolist(),
                words.tolist(),
                bits.tolist(),
                self._values[low:high].tolist(),
            )
        ]

    def __iter__(self) -> Iterator[Tuple[RegisterBit, int]]:
        self._compact()
        return iter(self._pairs(0, len(self._positions)))

    def positions(self) -> List[RegisterBit]:
        return [bit for bit, _ in self]

    def _slot(self, bit: RegisterBit) -> int:
        """Where ``bit`` sits in the arrays; raises if it is not declared."""
        span = self._frame_index().get(bit.frame_index)
        if (
            span is not None
            and 0 <= bit.word_index < self._words
            and 0 <= bit.bit_index < 32
        ):
            low, high = span
            position = (
                bit.frame_index * self._frame_bits + bit.word_index * 32 + bit.bit_index
            )
            slot = low + int(self._positions[low:high].searchsorted(position))
            if slot < high and self._positions[slot] == position:
                return slot
        raise ConfigMemoryError(f"register bit {bit} is not declared")

    def get(self, bit: RegisterBit) -> int:
        return int(self._values[self._slot(bit)])

    def set(self, bit: RegisterBit, value: int) -> None:
        if value not in (0, 1):
            raise ConfigMemoryError(f"register value must be 0 or 1, got {value}")
        self._values[self._slot(bit)] = value

    def scramble(self, rng: DeterministicRng) -> None:
        """Simulate application activity: randomize every live register.

        Readback taken before and after a ``scramble`` differs exactly in
        masked positions — the invariant the mask tests check.

        Draw order is the sorted position order, so the scrambled values
        for a given RNG stream do not depend on declaration order; each
        bit gets what one ``randint(0, 1)`` would draw.
        """
        self._compact()
        self._values = rng.coin_flips(len(self._positions))

    def bits_in_frame(self, frame_index: int) -> List[Tuple[RegisterBit, int]]:
        span = self._frame_index().get(frame_index)
        if span is None:
            return []
        return self._pairs(*span)

    def overlay_frame(self, frame_index: int, frame_data: bytes) -> bytes:
        """Substitute live values into a frame's configuration bytes.

        This is what ICAP readback returns for the frame: configuration
        bits everywhere except at declared register positions, which carry
        the current application state.  A frame holds a few register
        bits, so a loop over them costs less than numpy's per-call
        overhead; :meth:`overlay_range` is the bulk form.
        """
        index = self._index
        if index is None:
            index = self._frame_index()
        span = index.get(frame_index)
        if span is None:
            return frame_data
        low, high = span
        data = bytearray(frame_data)
        base = frame_index * self._frame_bits
        for position, value in zip(
            self._positions[low:high].tolist(), self._values[low:high].tolist()
        ):
            # Bit b of big-endian word w is bit b % 8 of byte 4w + 3 - b // 8.
            offset = position - base
            mask = 1 << (offset & 7)
            if value:
                data[(offset >> 3) ^ 3] |= mask
            else:
                data[(offset >> 3) ^ 3] &= ~mask
        return bytes(data)

    def overlay_range(self, start_index: int, data: bytes) -> bytes:
        """:meth:`overlay_frame` over consecutive frames from ``start_index``.

        ``data`` holds whole frames, as a bulk readback reads them.  Every
        declared bit among them lands in one numpy scatter; a range with
        no registers comes back as the same object.
        """
        self._compact()
        base = start_index * self._frame_bits
        low, high = self._positions.searchsorted((base, base + 8 * len(data)))
        if low == high:
            return data
        offsets = self._positions[low:high] - base
        masks = np.left_shift(1, offsets & 7).astype(np.uint8)
        targets = (offsets >> 3) ^ 3
        buffer = np.frombuffer(data, dtype=np.uint8).copy()
        np.bitwise_and.at(buffer, targets, ~masks)
        np.bitwise_or.at(buffer, targets, masks * self._values[low:high])
        return buffer.tobytes()
