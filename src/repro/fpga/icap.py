"""The Internal Configuration Access Port (ICAP).

The ICAP is the static partition's window into the configuration memory:
it writes frames during partial reconfiguration and reads the *entire*
memory back — including the static partition's own frames — which is what
makes self-attestation possible (Figures 3 and 4 of the paper).

The model is functional plus cycle-accounted: every operation moves real
frame bytes and tallies the 32-bit-word transactions it would take on the
100 MHz ICAP clock, so the timing layer can derive A2/A4 durations.  It
keeps exact counters and no log of operations: a full-device attestation
performs ~55k single-frame operations, each a few counter updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import IcapError
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.registers import LiveRegisterFile

#: Command/address words surrounding each frame write (sync, FAR, FDRI
#: header, ...) — the fixed packet overhead of a one-frame configuration.
WRITE_OVERHEAD_WORDS = 16
#: Words clocked for a one-frame readback beyond the frame itself: the
#: readback command sequence plus the pipeline pad frame the silicon
#: flushes before real data appears.
READBACK_OVERHEAD_WORDS = 24


@dataclass
class IcapStats:
    """Transaction counters for the cycle/timing model.

    Exact totals over every operation since the ICAP was created; no
    per-operation log is kept.
    """

    frames_written: int = 0
    frames_read: int = 0
    words_written: int = 0
    words_read: int = 0


class Icap:
    """Functional ICAP bound to one configuration memory.

    ``enabled`` models the (rarely used) option of locking the ICAP out of
    the static region: when a static-frame write is attempted with
    ``protect_frames`` set, the write is refused.  SACHa deliberately does
    *not* protect any frame for readback — the whole memory must be
    attestable.
    """

    def __init__(
        self,
        memory: ConfigurationMemory,
        registers: Optional[LiveRegisterFile] = None,
    ) -> None:
        self._memory = memory
        self._registers = registers
        self._protected_frames: frozenset = frozenset()
        self.stats = IcapStats()
        # Per-device constants of the single-frame hot path.
        device = memory.device
        words = device.words_per_frame
        self._frame_bytes = device.frame_bytes
        self._total_frames = device.total_frames
        self._write_words = words + WRITE_OVERHEAD_WORDS
        self._read_words = words + READBACK_OVERHEAD_WORDS

    @property
    def memory(self) -> ConfigurationMemory:
        return self._memory

    @property
    def registers(self) -> Optional[LiveRegisterFile]:
        return self._registers

    def protect_frames(self, frame_indices) -> None:
        """Refuse ICAP writes to these frames (static-region write lock)."""
        self._protected_frames = frozenset(frame_indices)

    # -- configuration write --------------------------------------------------

    def write_frame(self, frame_index: int, data: bytes) -> None:
        """Write one frame of configuration data (partial reconfiguration).

        Overwriting a frame replaces the logic configured there, so any
        live register state declared in that frame is discarded.
        """
        if frame_index in self._protected_frames:
            raise IcapError(f"frame {frame_index} is write-protected")
        self._memory.write_frame(frame_index, data)
        if self._registers is not None:
            self._registers.forget_frame(frame_index)
        stats = self.stats
        stats.frames_written += 1
        stats.words_written += self._write_words

    def write_frames(self, frame_indices, data: bytes) -> None:
        """Write several equal-sized frames, one store per run of indices.

        Equivalent to calling :meth:`write_frame` for each index in order
        — same memory contents, same register invalidation, same word
        accounting — but each maximal run of consecutive indices lands
        with one :meth:`ConfigurationMemory.write_frames` slice store.  A
        protocol batch is four consecutive frames on the XC6VLX240T and a
        boot image's FDRI packet one ``range``, so either is one store.
        Scattered, repeated or descending indices are single-frame runs,
        stored in order, so the last write to a frame wins.
        """
        count = len(frame_indices)
        if count == 0:
            return
        frame_bytes = self._frame_bytes
        if len(data) != count * frame_bytes:
            raise IcapError(
                f"{len(data)} bytes do not hold {count} frames of "
                f"{frame_bytes} bytes"
            )
        if min(frame_indices) < 0 or max(frame_indices) >= self._total_frames:
            raise IcapError("frame index out of range in bulk write")
        if self._protected_frames:
            for frame_index in frame_indices:
                if int(frame_index) in self._protected_frames:
                    raise IcapError(f"frame {frame_index} is write-protected")
        memory = self._memory
        run = 0
        previous = frame_indices[0]
        for position in range(1, count):
            index = frame_indices[position]
            if index != previous + 1:
                memory.write_frames(
                    int(frame_indices[run]),
                    data[run * frame_bytes : position * frame_bytes],
                )
                run = position
            previous = index
        memory.write_frames(
            int(frame_indices[run]), data[run * frame_bytes :] if run else data
        )
        if self._registers is not None:
            self._registers.forget_frames(frame_indices)
        self.stats.frames_written += count
        self.stats.words_written += count * self._write_words

    # -- configuration readback -----------------------------------------------

    def readback_frame(self, frame_index: int) -> bytes:
        """Read one frame back, with live register values substituted.

        This is the raw datum the MAC core consumes and the verifier must
        mask: configuration bits plus current storage-element state.
        """
        data = self._memory.read_frame(frame_index)
        if self._registers is not None:
            data = self._registers.overlay_frame(frame_index, data)
        stats = self.stats
        stats.frames_read += 1
        stats.words_read += self._read_words
        return data

    def readback_range(self, start_index: int, count: int) -> bytes:
        """Read ``count`` consecutive frames as one contiguous buffer.

        Equivalent to concatenating :meth:`readback_frame` results for the
        range — same bytes, same transaction accounting — but the sweep is
        a single bulk copy out of the configuration memory with every
        register overlay patched in by one scatter, instead of ``count``
        separate frame copies.
        """
        if count < 1:
            raise IcapError(f"readback count must be positive, got {count}")
        data = self._memory.read_frames(start_index, count)
        if self._registers is not None:
            data = self._registers.overlay_range(start_index, data)
        self.stats.frames_read += count
        self.stats.words_read += count * self._read_words
        return data

    def iter_readback(
        self, start_index: int = 0, count: Optional[int] = None
    ) -> Iterator[memoryview]:
        """Yield frames in ascending order without materializing the sweep.

        One bulk :meth:`readback_range` backs the iteration; each yielded
        item is a read-only ``memoryview`` slice of that buffer, so a
        full-device sweep costs one allocation rather than one ``bytes``
        object per frame.
        """
        if count is None:
            count = self._memory.total_frames - start_index
        data = memoryview(self.readback_range(start_index, count))
        frame_bytes = self._memory.device.frame_bytes
        for offset in range(count):
            yield data[offset * frame_bytes : (offset + 1) * frame_bytes]

    def readback_all(self) -> List[bytes]:
        """Read every frame in ascending order (Figure 4)."""
        return [bytes(frame) for frame in self.iter_readback()]

    # -- cycle accounting -------------------------------------------------------

    def write_cycles_per_frame(self) -> int:
        """32-bit ICAP transactions for a one-frame configuration write."""
        return self._write_words

    def readback_cycles_per_frame(self) -> int:
        """32-bit ICAP transactions for a one-frame readback."""
        return self._read_words
