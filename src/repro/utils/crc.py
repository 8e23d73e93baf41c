"""CRC implementations used by the network and bitstream substrates.

Two variants are needed:

* ``Crc32`` — IEEE 802.3 CRC-32, the Ethernet frame check sequence;
* ``XilinxBitstreamCrc`` — the 32-bit CRC Xilinx configuration logic keeps
  over (register address, data word) pairs during bitstream loading.  The
  real polynomial is undocumented for most families; we use the standard
  CRC-32C (Castagnoli) polynomial over the 37-bit (address ‖ word) records,
  which preserves the structure of the check: it covers both payload and
  target register of every packet write.

A full XC6VLX240T boot image writes 169,137 words, so the configuration
CRC is folded with numpy over whole packets rather than byte by byte.
The CRC is zero-initialised with no final XOR, hence linear: the CRC of a
message is the XOR of each byte's contribution, which depends only on
the byte and on how many bytes follow it, and leading zero bytes change
nothing.  ``_fold`` pads the 5-byte records (big-endian word ‖ register)
with leading zero records to whole blocks of :data:`_BLOCK_RECORDS`,
takes each block's CRC from per-distance byte tables in one gather, and
combines blocks pairwise through level tables that advance the left
block's CRC past the right one's bytes.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence, Tuple, Union

import numpy as np


def _make_table(poly: int) -> List[int]:
    """Build a byte-at-a-time lookup table for a reflected 32-bit CRC."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table.append(crc)
    return table


class Crc32:
    """IEEE 802.3 CRC-32 (reflected, init ``0xFFFFFFFF``, final XOR).

    Backed by :func:`zlib.crc32`, which implements exactly this CRC
    (same polynomial, init and final XOR), so the digest is bit-identical
    to the byte-at-a-time table loop it replaced — but runs in C.  The
    ARQ layer computes two CRCs per wire frame, which made the Python
    loop the single hottest function of a networked attestation.
    """

    def __init__(self) -> None:
        self._digest = 0

    def update(self, data: bytes) -> "Crc32":
        self._digest = zlib.crc32(data, self._digest)
        return self

    def digest(self) -> int:
        return self._digest

    def digest_bytes(self) -> bytes:
        """FCS as transmitted on the wire (little-endian)."""
        return self.digest().to_bytes(4, "little")


def crc32(data: bytes) -> int:
    """One-shot IEEE CRC-32 of ``data``."""
    return Crc32().update(data).digest()


#: Records per leaf block of the fold: one block covers a SIM-SMALL boot
#: image, so small loads fold without a single combine level.
_BLOCK_RECORDS = 64
_BLOCK_BYTES = 5 * _BLOCK_RECORDS
#: Leaf blocks gathered at a time, bounding the fold's index temporaries
#: to ~1 MiB however long the image is.
_CHUNK_BLOCKS = 256
#: Combine levels: enough to fold 2**26 blocks, i.e. 2**32 records.
_LEVELS = 26
_BYTE_SHIFTS = np.arange(0, 32, 8, dtype=np.uint32)
_BYTE_OFFSETS = np.arange(0, 1024, 256)


def _advance(distance: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """CRC states ``values`` after ``count`` (>= 4) further zero bytes.

    A reflected CRC state enters the next four message bytes low byte
    first, so byte ``p`` of the state ends ``count - 1 - p`` bytes before
    the end; ``distance[d]`` is the table for a byte followed by ``d``
    zero bytes.
    """
    result = distance[count - 1][values & 0xFF]
    for byte in range(1, 4):
        result ^= distance[count - 1 - byte][(values >> (8 * byte)) & 0xFF]
    return result


def _fold_tables(poly: int) -> Tuple[np.ndarray, np.ndarray]:
    """The leaf block's distance tables and the combine levels' tables.

    Returns ``distance``, flattened: entry ``256 * d + x`` is the CRC of
    byte ``x`` followed by ``d`` zero bytes, ``d < _BLOCK_BYTES``; and
    ``levels`` of shape ``(_LEVELS, 1024)``: row ``L`` advances a state
    past ``_BLOCK_BYTES * 2**L`` zero bytes, one 256-entry table per state
    byte.  Distances double by advancing the rows already built; each
    level is the GF(2) square of the one below it.
    """
    table = np.array(_make_table(poly), dtype=np.uint32)
    rows = [table]
    for _ in range(3):
        rows.append((rows[-1] >> 8) ^ table[rows[-1] & 0xFF])
    distance = np.array(rows)
    while len(distance) < _BLOCK_BYTES:
        grown = distance[: _BLOCK_BYTES - len(distance)]
        distance = np.concatenate(
            (distance, _advance(distance, grown, len(distance)))
        )
    bit_of_byte = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint32)
    columns = _advance(
        distance, np.uint32(1) << np.arange(32, dtype=np.uint32), _BLOCK_BYTES
    )
    levels = np.empty((_LEVELS, 4, 256), dtype=np.uint32)
    for level in levels:
        # Row p, entry x: the XOR of the columns of the bits set in x,
        # placed at byte p of the state.
        level[:] = np.bitwise_xor.reduce(
            bit_of_byte * columns.reshape(4, 1, 8), axis=2
        )
        # The level's operator applied to its own columns: its square.
        columns = _combine(level.ravel(), columns, 0)
    return distance.ravel(), levels.reshape(_LEVELS, 1024)


def _combine(
    level: np.ndarray, left: np.ndarray, right: Union[np.ndarray, int]
) -> np.ndarray:
    """``left`` advanced through one level's tables, XOR ``right``."""
    index = ((left[:, None] >> _BYTE_SHIFTS) & 0xFF) + _BYTE_OFFSETS
    return np.bitwise_xor.reduce(level[index], axis=1) ^ right


_DISTANCE, _LEVEL_TABLES = _fold_tables(0x82F63B78)  # CRC-32C, reflected
#: Index of each leaf-block byte's table: the bytes that follow it.
_BLOCK_DISTANCES = 256 * np.arange(_BLOCK_BYTES - 1, -1, -1)


def _fold(state: int, segments: Sequence[Tuple[int, np.ndarray]]) -> int:
    """Advance ``state`` through every (register, words) segment in order."""
    words = np.concatenate([chunk for _, chunk in segments])
    if not len(words):
        return state
    # The carried state enters the first record, low byte first.
    words[0] ^= int.from_bytes(state.to_bytes(4, "little"), "big")
    pad = -len(words) % _BLOCK_RECORDS
    records = np.zeros((pad + len(words), 5), dtype=np.uint8)
    body = records[pad:]
    for column, shift in enumerate((24, 16, 8, 0)):
        body[:, column] = words >> shift  # the assignment keeps the low byte
    body[:, 4] = np.repeat(
        np.array([register for register, _ in segments], dtype=np.uint8),
        [len(chunk) for _, chunk in segments],
    )
    blocks = records.reshape(-1, _BLOCK_BYTES)
    values = np.concatenate(
        [
            np.bitwise_xor.reduce(
                _DISTANCE[blocks[start : start + _CHUNK_BLOCKS] + _BLOCK_DISTANCES],
                axis=1,
            )
            for start in range(0, len(blocks), _CHUNK_BLOCKS)
        ]
    )
    level = 0
    while len(values) > 1:
        if len(values) % 2:
            values = np.concatenate((np.zeros(1, dtype=np.uint32), values))
        values = _combine(_LEVEL_TABLES[level], values[0::2], values[1::2])
        level += 1
    return int(values[0])


class XilinxBitstreamCrc:
    """Configuration-logic CRC over (register, word) records.

    Every word written through a configuration packet is folded into the
    CRC together with the 5-bit address of the register it targets, the
    same coverage the silicon implements.  Writing the expected value to
    the CRC register checks and resets the accumulator.

    Fed records are buffered and folded once per :meth:`digest` or
    :meth:`check`: a boot image is a few packet writes and one check, so
    the fold's fixed numpy cost is paid once per image, not per packet.
    """

    def __init__(self) -> None:
        self._state = 0
        self._pending: List[Tuple[int, np.ndarray]] = []

    def reset(self) -> None:
        self._state = 0
        self._pending = []

    def feed(self, register: int, word: int) -> None:
        """Fold one 32-bit ``word`` written to config ``register`` (5 bit)."""
        self.feed_words(register, (word,))

    def feed_words(
        self, register: int, words: Union[Sequence[int], np.ndarray]
    ) -> None:
        """Fold a sequence or array of 32-bit ``words`` written to ``register``."""
        if not 0 <= register < 32:
            raise ValueError(f"register address {register} does not fit in 5 bits")
        self._pending.append((register, np.array(words, dtype=np.uint32)))

    def digest(self) -> int:
        if self._pending:
            self._state = _fold(self._state, self._pending)
            self._pending = []
        return self._state

    def check(self, expected: int) -> bool:
        """Compare against ``expected`` and reset, as the CRC register does."""
        ok = self.digest() == int(expected)
        self.reset()
        return ok
