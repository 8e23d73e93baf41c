"""Bitstream encoding and decoding.

Configuration data reaches the device as a *bitstream*: a header followed
by a stream of 32-bit words — sync sequence, type-1/type-2 packets that
write configuration registers (FAR, CMD, FDRI, CRC, ...) and the frame
data itself.  SACHa's verifier builds full bitstreams (golden reference,
BootMem image) and partial bitstreams (the DynPart payload of the
protocol) in this format; the prover-side loader replays them through the
ICAP.

The packet grammar follows the Xilinx 7-series/Virtex-6 configuration
user guides; the frame address register (FAR) carries a structured
block-type/row/major/minor value (``repro.fpga.frames``), and FDRI data
auto-increments it across frame boundaries.

A bitstream body is one ``uint32`` array: the writer emits each frame run
as one array, the codec converts the whole body with one big-endian
``astype``/``frombuffer``, and the loader parses only the few packet
headers as Python ints, folding each payload into the CRC and writing
each FDRI payload through the ICAP as whole arrays.  A hostile image
fails with :class:`~repro.errors.BitstreamError` (or another
:class:`~repro.errors.ReproError`), never with a bare decoding error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BitstreamCrcError, BitstreamError
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import DevicePart
from repro.fpga.frames import FarCodec
from repro.fpga.icap import Icap
from repro.utils.crc import XilinxBitstreamCrc

DUMMY_WORD = 0xFFFFFFFF
BUS_WIDTH_SYNC = 0x000000BB
BUS_WIDTH_DETECT = 0x11220044
SYNC_WORD = 0xAA995566


class ConfigRegister(enum.IntEnum):
    """Configuration-logic register addresses (5 bits)."""

    CRC = 0
    FAR = 1
    FDRI = 2
    FDRO = 3
    CMD = 4
    CTL0 = 5
    MASK = 6
    STAT = 7
    LOUT = 8
    COR0 = 9
    IDCODE = 12


class ConfigCommand(enum.IntEnum):
    """Values written to the CMD register."""

    NULL = 0
    WCFG = 1
    MFW = 2
    LFRM = 3
    RCFG = 4
    START = 5
    RCAP = 6
    RCRC = 7
    DESYNC = 13


class PacketOp(enum.IntEnum):
    NOP = 0
    READ = 1
    WRITE = 2

_TYPE1 = 0b001
_TYPE2 = 0b010
_TYPE1_COUNT_BITS = 11
_TYPE2_COUNT_BITS = 27


def type1_header(op: PacketOp, register: ConfigRegister, word_count: int) -> int:
    if not 0 <= word_count < (1 << _TYPE1_COUNT_BITS):
        raise BitstreamError(f"type-1 word count {word_count} out of range")
    return (_TYPE1 << 29) | (op << 27) | (int(register) << 13) | word_count


def type2_header(op: PacketOp, word_count: int) -> int:
    if not 0 <= word_count < (1 << _TYPE2_COUNT_BITS):
        raise BitstreamError(f"type-2 word count {word_count} out of range")
    return (_TYPE2 << 29) | (op << 27) | word_count


@dataclass(frozen=True)
class BitstreamHeader:
    """Design metadata carried ahead of the configuration words.

    Models the informational header of a ``.bit`` file: design name,
    target part and build tag (we do not model the Xilinx TLV layout, just
    its content).
    """

    design_name: str
    part_name: str
    build_tag: str = "repro-bitgen-1.0"

    def encode(self) -> bytes:
        fields = [self.design_name, self.part_name, self.build_tag]
        blob = b""
        for text in fields:
            raw = text.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise BitstreamError(f"header field too long: {text[:32]}...")
            blob += len(raw).to_bytes(2, "big") + raw
        return b"XBIT" + blob

    @classmethod
    def decode(cls, data: bytes) -> Tuple["BitstreamHeader", int]:
        if data[:4] != b"XBIT":
            raise BitstreamError("missing bitstream header magic")
        offset = 4
        fields: List[str] = []
        for _ in range(3):
            if offset + 2 > len(data):
                raise BitstreamError("truncated bitstream header")
            length = int.from_bytes(data[offset : offset + 2], "big")
            offset += 2
            if offset + length > len(data):
                raise BitstreamError("truncated bitstream header field")
            try:
                fields.append(str(data[offset : offset + length], "utf-8"))
            except UnicodeDecodeError:
                raise BitstreamError("bitstream header field is not UTF-8") from None
            offset += length
        return cls(fields[0], fields[1], fields[2]), offset


@dataclass(eq=False)
class Bitstream:
    """A complete bitstream: header plus configuration words.

    ``words`` is a ``uint32`` array (a sequence of ints is converted);
    the words appear big-endian on the wire.
    """

    header: BitstreamHeader
    words: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint32))

    def __post_init__(self) -> None:
        self.words = np.asarray(self.words, dtype=np.uint32)

    def to_bytes(self) -> bytes:
        return self.header.encode() + self.words.astype(">u4").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        header, offset = BitstreamHeader.decode(data)
        body_bytes = len(data) - offset
        if body_bytes % 4:
            raise BitstreamError(
                f"bitstream body of {body_bytes} bytes is not word-aligned"
            )
        words = np.frombuffer(data, dtype=">u4", offset=offset).astype(np.uint32)
        return cls(header, words)

    def size_bytes(self) -> int:
        return len(self.header.encode()) + 4 * len(self.words)


class BitstreamWriter:
    """Builds the word stream of a bitstream, tracking the running CRC."""

    def __init__(self, device: DevicePart, design_name: str) -> None:
        self._device = device
        self._far_codec = FarCodec(device)
        self._chunks: List[np.ndarray] = []
        self._words: List[int] = []  # emitted since the last array chunk
        self._crc = XilinxBitstreamCrc()
        self._synced = False
        self._design_name = design_name

    def _emit(self, word: int) -> None:
        self._words.append(word & 0xFFFFFFFF)

    def _emit_array(self, words: np.ndarray) -> None:
        self._chunks.append(np.array(self._words, dtype=np.uint32))
        self._chunks.append(words)
        self._words = []

    def dummy(self, count: int = 1) -> "BitstreamWriter":
        for _ in range(count):
            self._emit(DUMMY_WORD)
        return self

    def sync(self) -> "BitstreamWriter":
        self._emit(BUS_WIDTH_SYNC)
        self._emit(BUS_WIDTH_DETECT)
        self._emit(DUMMY_WORD)
        self._emit(SYNC_WORD)
        self._synced = True
        return self

    def nop(self, count: int = 1) -> "BitstreamWriter":
        for _ in range(count):
            self._emit(type1_header(PacketOp.NOP, ConfigRegister.CRC, 0))
        return self

    def write_register(
        self, register: ConfigRegister, values: Sequence[int]
    ) -> "BitstreamWriter":
        if not self._synced:
            raise BitstreamError("packets before sync word")
        self._emit(type1_header(PacketOp.WRITE, register, len(values)))
        words = [value & 0xFFFFFFFF for value in values]
        self._words.extend(words)
        if register != ConfigRegister.CRC:
            self._crc.feed_words(int(register), words)
        return self

    def command(self, command: ConfigCommand) -> "BitstreamWriter":
        if command == ConfigCommand.RCRC:
            # Reset-CRC clears the accumulator as a side effect.
            self.write_register(ConfigRegister.CMD, [int(command)])
            self._crc.reset()
            return self
        return self.write_register(ConfigRegister.CMD, [int(command)])

    def write_frames(self, start_frame: int, payload: bytes) -> "BitstreamWriter":
        """FAR + WCFG + FDRI packet writing the frames of ``payload``.

        ``payload`` is whole frames, concatenated, starting at
        ``start_frame``.  Large payloads use the type-1(0)/type-2
        continuation form, exactly like real full bitstreams.  The payload
        is emitted as one array.
        """
        if len(payload) % self._device.frame_bytes:
            raise BitstreamError(
                f"frame payload of {len(payload)} bytes is not whole "
                f"{self._device.frame_bytes}-byte frames"
            )
        data = np.frombuffer(payload, dtype=">u4").astype(np.uint32)
        self.write_register(
            ConfigRegister.FAR, [self._far_codec.pack_linear(start_frame)]
        )
        self.command(ConfigCommand.WCFG)
        if len(data) < (1 << _TYPE1_COUNT_BITS):
            self._emit(type1_header(PacketOp.WRITE, ConfigRegister.FDRI, len(data)))
        else:
            self._emit(type1_header(PacketOp.WRITE, ConfigRegister.FDRI, 0))
            self._emit(type2_header(PacketOp.WRITE, len(data)))
        self._emit_array(data)
        self._crc.feed_words(int(ConfigRegister.FDRI), data)
        return self

    def crc_check(self) -> "BitstreamWriter":
        """Write the expected CRC — the loader verifies and resets."""
        expected = self._crc.digest()
        self._emit(type1_header(PacketOp.WRITE, ConfigRegister.CRC, 1))
        self._emit(expected)
        self._crc.reset()
        return self

    def desync(self) -> "BitstreamWriter":
        self.command(ConfigCommand.DESYNC)
        self.nop(2)
        self._synced = False
        return self

    def finish(self) -> Bitstream:
        header = BitstreamHeader(self._design_name, self._device.name)
        tail = np.array(self._words, dtype=np.uint32)
        return Bitstream(header, np.concatenate([*self._chunks, tail]))


def build_full_bitstream(
    memory: ConfigurationMemory, design_name: str = "design"
) -> Bitstream:
    """Full-device bitstream from a configuration image."""
    device = memory.device
    writer = BitstreamWriter(device, design_name)
    writer.dummy(8).sync().nop(2)
    writer.command(ConfigCommand.RCRC)
    writer.write_register(ConfigRegister.IDCODE, [_idcode(device)])
    writer.write_frames(0, memory.read_frames(0, device.total_frames))
    writer.crc_check()
    writer.command(ConfigCommand.START)
    writer.desync()
    return writer.finish()


def build_partial_bitstream(
    memory: ConfigurationMemory,
    frame_indices: Iterable[int],
    design_name: str = "partial",
) -> Bitstream:
    """Partial bitstream covering exactly ``frame_indices``.

    Contiguous index runs become single FAR/FDRI bursts; the bitstream
    only ever touches the given frames — the defining property of a
    partial bitstream targeting a dynamic partition.
    """
    device = memory.device
    indices = sorted(set(frame_indices))
    if not indices:
        raise BitstreamError("partial bitstream needs at least one frame")
    writer = BitstreamWriter(device, design_name)
    writer.dummy(2).sync().nop(1)
    writer.command(ConfigCommand.RCRC)
    writer.write_register(ConfigRegister.IDCODE, [_idcode(device)])

    run_start = indices[0]
    previous = indices[0]
    runs: List[Tuple[int, int]] = []
    for index in indices[1:]:
        if index != previous + 1:
            runs.append((run_start, previous))
            run_start = index
        previous = index
    runs.append((run_start, previous))

    for first, last in runs:
        writer.write_frames(first, memory.read_frames(first, last - first + 1))
    writer.crc_check()
    writer.desync()
    return writer.finish()


def _idcode(device: DevicePart) -> int:
    """A stable 32-bit identifier for the part (hash of its name)."""
    value = 0x0FFFFFFF
    for byte in device.name.encode("utf-8"):
        value = ((value * 33) ^ byte) & 0xFFFFFFFF
    return value | 0x10000000  # never zero, bit 28 set like real IDCODEs


@dataclass
class LoadReport:
    """What a bitstream load did to the device."""

    frames_written: List[int] = field(default_factory=list)
    crc_checks: int = 0
    commands: List[ConfigCommand] = field(default_factory=list)

    @property
    def frame_count(self) -> int:
        return len(self.frames_written)


class BitstreamLoader:
    """Replays a bitstream into a device through its ICAP.

    Implements the loader state machine: sync detection, register writes,
    FAR auto-increment across FDRI data, CRC verification, IDCODE check.
    Packet headers are parsed as ints; payloads stay array slices, folded
    into the CRC whole and written to the ICAP one FDRI packet at a time.
    """

    def __init__(self, icap: Icap) -> None:
        self._icap = icap
        self._device = icap.memory.device
        self._far_codec = FarCodec(self._device)
        self._idcode = _idcode(self._device)

    def load(self, bitstream: Bitstream) -> LoadReport:
        if bitstream.header.part_name != self._device.name:
            raise BitstreamError(
                f"bitstream targets {bitstream.header.part_name}, "
                f"device is {self._device.name}"
            )
        report = LoadReport()
        crc = XilinxBitstreamCrc()
        registers: Dict[int, int] = {}
        words = bitstream.words
        position = 0
        synced = False
        # Target of a header-only type-1 write, awaiting its type-2 payload.
        pending_register: Optional[int] = None

        while position < len(words):
            word = int(words[position])
            position += 1
            if not synced:
                if word == SYNC_WORD:
                    synced = True
                continue
            packet_type = word >> 29
            op = (word >> 27) & 0b11
            if packet_type == _TYPE1:
                register = (word >> 13) & 0b11111
                count = word & ((1 << _TYPE1_COUNT_BITS) - 1)
                if op == PacketOp.NOP:
                    continue
                if op == PacketOp.WRITE:
                    if count == 0:
                        # Header-only write: a type-2 continuation follows.
                        pending_register = register
                        continue
                    payload = words[position : position + count]
                    if len(payload) != count:
                        raise BitstreamError("truncated type-1 payload")
                    position += count
                    command = self._apply_write(
                        register, payload, crc, registers, report
                    )
                    if command is ConfigCommand.DESYNC:
                        synced = False
                    continue
                raise BitstreamError(f"unsupported type-1 op {op}")
            if packet_type == _TYPE2:
                count = word & ((1 << _TYPE2_COUNT_BITS) - 1)
                if pending_register is None:
                    raise BitstreamError("type-2 packet without preceding type-1")
                register, pending_register = pending_register, None
                payload = words[position : position + count]
                if len(payload) != count:
                    raise BitstreamError("truncated type-2 payload")
                position += count
                self._apply_write(register, payload, crc, registers, report)
                continue
            raise BitstreamError(f"unknown packet type {packet_type:#05b}")
        return report

    def _apply_write(
        self,
        register: int,
        payload: np.ndarray,
        crc: XilinxBitstreamCrc,
        registers: Dict[int, int],
        report: LoadReport,
    ) -> Optional[ConfigCommand]:
        if register == ConfigRegister.CRC:
            if len(payload) != 1:
                raise BitstreamError("CRC write must carry exactly one word")
            report.crc_checks += 1
            if not crc.check(int(payload[0])):
                raise BitstreamCrcError(
                    f"bitstream CRC mismatch at check #{report.crc_checks}"
                )
            return None

        crc.feed_words(register, payload)
        if not len(payload):
            # A zero-word (type-2) write changes no register.
            return None
        value = int(payload[-1])

        if register == ConfigRegister.CMD:
            try:
                command = ConfigCommand(value)
            except ValueError:
                raise BitstreamError(
                    f"unknown configuration command {value:#x}"
                ) from None
            report.commands.append(command)
            if command == ConfigCommand.RCRC:
                crc.reset()
            return command
        if register == ConfigRegister.IDCODE:
            if value != self._idcode:
                raise BitstreamError(
                    f"IDCODE mismatch: bitstream {value:#010x}, "
                    f"device {self._idcode:#010x}"
                )
            return None
        if register == ConfigRegister.FAR:
            # The FAR carries a structured (block/row/major/minor) value;
            # keep the linear cursor internally.
            registers[int(ConfigRegister.FAR)] = self._far_codec.unpack_to_linear(value)
            return None
        if register == ConfigRegister.FDRI:
            words_per_frame = self._device.words_per_frame
            if len(payload) % words_per_frame:
                raise BitstreamError(
                    f"FDRI payload of {len(payload)} words is not frame-aligned"
                )
            first = registers.get(int(ConfigRegister.FAR), 0)
            frames = range(first, first + len(payload) // words_per_frame)
            self._icap.write_frames(frames, payload.astype(">u4").tobytes())
            report.frames_written.extend(frames)
            registers[int(ConfigRegister.FAR)] = frames.stop
            return None
        # Other registers (CTL0, COR0, MASK, ...) are accepted and ignored.
        registers[register] = value
        return None
