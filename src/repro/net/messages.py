"""SACHa wire format.

Three commands travel verifier → prover (Section 6.1 of the paper):

1. ``ICAP_config(frame)`` — frame address + frame content to write;
2. ``ICAP_readback(frame_nb)`` — address of a frame to read back and fold
   into the MAC;
3. ``MAC_checksum`` — finalize the MAC and return the tag.

Two responses travel prover → verifier: the frame content for each
readback, and the final MAC tag.  These per-frame messages are what the
in-memory :func:`~repro.core.protocol.run_attestation` exchanges.

The networked session moves the same protocol in batches:
``ICAP_config_batch`` and ``ICAP_readback_batch`` carry many frames per
command (one index is the paper's per-frame step), the prover answers a
readback batch with MTU-sized ``ReadbackBatchResponse`` fragments, and a
*cumulative* ``ConfigAck`` confirms the configuration: one ack per
configuration phase, sent when the first read-back batch arrives and
carrying the total number of frames applied in the attempt — the return
path carries one ack per attempt instead of one per config batch.

Every message is self-delimiting: 1 opcode byte, fixed-size fields, and a
2-byte length prefix before variable data.  A decoder refuses every
field value its encoder refuses (a batch of 0 frames, say), so what it
accepts re-encodes to a prefix of its input; the rest is padding.

Every message is an immutable value: a named tuple that equals only a
message of the same type with equal fields, so the 83,376 per-frame
messages of a full-device run cost one tuple each.  A field-less message
such as ``MacChecksumCommand()`` is an empty tuple, hence falsy: test a
message's type, never its truthiness.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Sequence, Tuple, TypeVar, Union

from repro.errors import WireFormatError

OPCODE_ICAP_CONFIG = 0x01
OPCODE_ICAP_READBACK = 0x02
OPCODE_MAC_CHECKSUM = 0x03
OPCODE_ICAP_READBACK_MASKED = 0x04
OPCODE_ICAP_READBACK_BATCH = 0x06
OPCODE_ICAP_CONFIG_BATCH = 0x07
OPCODE_CONFIG_ACK = 0x80
OPCODE_READBACK_RESPONSE = 0x81
OPCODE_MAC_RESPONSE = 0x82
OPCODE_MASKED_READBACK_ACK = 0x83
OPCODE_READBACK_BATCH_RESPONSE = 0x85

_OPCODE_NAMES = {
    OPCODE_ICAP_CONFIG: "ICAP_config",
    OPCODE_ICAP_READBACK: "ICAP_readback",
    OPCODE_MAC_CHECKSUM: "MAC_checksum",
    OPCODE_ICAP_READBACK_MASKED: "ICAP_readback_masked",
    OPCODE_ICAP_READBACK_BATCH: "ICAP_readback_batch",
    OPCODE_ICAP_CONFIG_BATCH: "ICAP_config_batch",
    OPCODE_CONFIG_ACK: "ConfigAck",
    OPCODE_READBACK_RESPONSE: "ReadbackResponse",
    OPCODE_MAC_RESPONSE: "MacChecksumResponse",
    OPCODE_MASKED_READBACK_ACK: "MaskedReadbackAck",
    OPCODE_READBACK_BATCH_RESPONSE: "ReadbackBatchResponse",
}


_Message = TypeVar("_Message", bound=type)


def _same_message(self: tuple, other: object) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _other_message(self: tuple, other: object) -> bool:
    return type(other) is not type(self) or tuple.__ne__(self, other)


def _message(cls: _Message) -> _Message:
    """Make a named tuple a message value of its own type.

    Plain tuple equality would make ``ConfigAck(5)`` equal to
    ``MaskedReadbackAck(5)`` and to ``(5,)``, and a decoder returning the
    wrong type would still round-trip.  Equality already tells the types
    apart, so the tuple hash stays.
    """
    setattr(cls, "__eq__", _same_message)
    setattr(cls, "__ne__", _other_message)
    setattr(cls, "__hash__", tuple.__hash__)
    return cls


def _opcode_name(opcode: int) -> str:
    name = _OPCODE_NAMES.get(opcode, "unknown message")
    return f"{name} (opcode {opcode:#04x})"


def _encode_blob(data: bytes, opcode: int) -> bytes:
    if len(data) > 0xFFFF:
        raise WireFormatError(
            f"{_opcode_name(opcode)}: blob of {len(data)} bytes exceeds the "
            f"16-bit wire limit of {0xFFFF}"
        )
    return len(data).to_bytes(2, "big") + data


def _decode_blob(data: bytes, offset: int, opcode: int) -> tuple:
    if offset < 0:
        raise WireFormatError(
            f"{_opcode_name(opcode)}: negative blob offset {offset}"
        )
    if offset > len(data):
        raise WireFormatError(
            f"{_opcode_name(opcode)}: blob offset {offset} beyond the "
            f"{len(data)}-byte message"
        )
    if offset + 2 > len(data):
        raise WireFormatError(f"{_opcode_name(opcode)}: truncated length prefix")
    length = int.from_bytes(data[offset : offset + 2], "big")
    offset += 2
    if offset + length > len(data):
        raise WireFormatError(
            f"{_opcode_name(opcode)}: truncated blob: need {length} bytes, "
            f"have {len(data) - offset}"
        )
    return data[offset : offset + length], offset + length


@_message
class IcapConfigCommand(NamedTuple):
    """Write ``data`` to configuration-memory frame ``frame_index``."""

    frame_index: int
    data: bytes

    def encode(self) -> bytes:
        if self.frame_index < 0 or self.frame_index > 0xFFFFFFFF:
            raise WireFormatError(f"frame index {self.frame_index} out of range")
        return (
            bytes([OPCODE_ICAP_CONFIG])
            + self.frame_index.to_bytes(4, "big")
            + _encode_blob(self.data, OPCODE_ICAP_CONFIG)
        )


@_message
class IcapReadbackCommand(NamedTuple):
    """Read configuration-memory frame ``frame_index`` back and MAC it."""

    frame_index: int

    def encode(self) -> bytes:
        if self.frame_index < 0 or self.frame_index > 0xFFFFFFFF:
            raise WireFormatError(f"frame index {self.frame_index} out of range")
        return bytes([OPCODE_ICAP_READBACK]) + self.frame_index.to_bytes(4, "big")


@_message
class MacChecksumCommand(NamedTuple):
    """Finalize the MAC and return the tag."""

    def encode(self) -> bytes:
        return bytes([OPCODE_MAC_CHECKSUM])


@_message
class IcapReadbackMaskedCommand(NamedTuple):
    """The Section-6.1 alternative: readback with the Msk sent along.

    The prover applies the mask *before* the MAC step and does not send
    the frame content back — the mask travels Vrf → Prv instead of the
    frame travelling Prv → Vrf ("a similar communication latency").
    """

    frame_index: int
    mask: bytes

    def encode(self) -> bytes:
        if self.frame_index < 0 or self.frame_index > 0xFFFFFFFF:
            raise WireFormatError(f"frame index {self.frame_index} out of range")
        return (
            bytes([OPCODE_ICAP_READBACK_MASKED])
            + self.frame_index.to_bytes(4, "big")
            + _encode_blob(self.mask, OPCODE_ICAP_READBACK_MASKED)
        )


def _encode_indices(indices: Sequence[int], opcode: int) -> bytes:
    """A 2-byte count, then the frame indices as big-endian u32s."""
    count = len(indices)
    if count < 1 or count > 0xFFFF:
        raise WireFormatError(
            f"{_opcode_name(opcode)}: batch of {count} frames out of "
            f"range 1..{0xFFFF}"
        )
    if min(indices) < 0 or max(indices) > 0xFFFFFFFF:
        raise WireFormatError(
            f"{_opcode_name(opcode)}: frame index out of 32-bit range"
        )
    return struct.pack(f">H{count}I", count, *indices)


def _decode_indices(data: bytes, offset: int, opcode: int) -> tuple:
    """The index vector :func:`_encode_indices` wrote at ``offset``, and
    the offset just past it."""
    if offset + 2 > len(data):
        raise WireFormatError(f"{_opcode_name(opcode)}: truncated frame count")
    count = int.from_bytes(data[offset : offset + 2], "big")
    if count < 1:
        raise WireFormatError(f"{_opcode_name(opcode)}: batch of 0 frames")
    offset += 2
    end = offset + 4 * count
    if end > len(data):
        raise WireFormatError(
            f"{_opcode_name(opcode)}: {count} indices announced, "
            f"{(len(data) - offset) // 4} present"
        )
    return struct.unpack_from(f">{count}I", data, offset), end


@_message
class IcapReadbackBatchCommand(NamedTuple):
    """Batched readback of arbitrary (not necessarily contiguous) frames.

    The hot-path replacement for per-frame ``ICAP_readback`` round trips:
    one command carries up to 65,535 frame indices as packed big-endian
    u32s, and the prover answers with MTU-sized
    :class:`ReadbackBatchResponse` fragments.  ``base_slot`` is the
    position of the batch's first frame within the verifier's readback
    plan, so responses can be matched to the plan without echoing every
    index back.
    """

    base_slot: int
    frame_indices: Tuple[int, ...]

    def encode(self) -> bytes:
        if self.base_slot < 0 or self.base_slot > 0xFFFFFFFF:
            raise WireFormatError(f"batch base slot {self.base_slot} out of range")
        return (
            bytes([OPCODE_ICAP_READBACK_BATCH])
            + self.base_slot.to_bytes(4, "big")
            + _encode_indices(self.frame_indices, OPCODE_ICAP_READBACK_BATCH)
        )


@_message
class IcapConfigBatchCommand(NamedTuple):
    """Batched configuration: several equal-sized frames in one message.

    ``data`` is the concatenation of the frame contents, in index order;
    the per-frame size is ``len(data) // len(frame_indices)``.  A 4-byte
    length field sidesteps the 16-bit ``_encode_blob`` cap — the batch
    packer bounds the total to one ARQ payload anyway.
    """

    frame_indices: Tuple[int, ...]
    data: bytes

    def frame_bytes(self) -> int:
        if not self.frame_indices or len(self.data) % len(self.frame_indices):
            raise WireFormatError(
                f"ICAP_config_batch: {len(self.data)} data bytes do not "
                f"split evenly over {len(self.frame_indices)} frames"
            )
        return len(self.data) // len(self.frame_indices)

    def encode(self) -> bytes:
        self.frame_bytes()
        return (
            bytes([OPCODE_ICAP_CONFIG_BATCH])
            + _encode_indices(self.frame_indices, OPCODE_ICAP_CONFIG_BATCH)
            + len(self.data).to_bytes(4, "big")
            + self.data
        )


@_message
class ConfigAck(NamedTuple):
    """Cumulative configuration acknowledgement.

    ``frames_applied`` is the *total* number of configuration frames the
    prover has written in this attempt — cumulative like the ARQ's ACKs,
    so the one ack the prover sends per configuration phase (just before
    it handles the first read-back batch) confirms the whole
    configuration.  The verifier tracks the high-water mark and fails an
    attempt toward ``inconclusive`` (never a false reject) if the
    checksum arrives with configuration coverage incomplete.
    """

    frames_applied: int

    def encode(self) -> bytes:
        if self.frames_applied < 0 or self.frames_applied > 0xFFFFFFFF:
            raise WireFormatError(
                f"ConfigAck frames_applied {self.frames_applied} out of range"
            )
        return bytes([OPCODE_CONFIG_ACK]) + self.frames_applied.to_bytes(4, "big")


@_message
class ReadbackResponse(NamedTuple):
    """The content of one frame, streamed back during readback."""

    frame_index: int
    data: bytes

    def encode(self) -> bytes:
        return (
            bytes([OPCODE_READBACK_RESPONSE])
            + self.frame_index.to_bytes(4, "big")
            + _encode_blob(self.data, OPCODE_READBACK_RESPONSE)
        )


@_message
class MaskedReadbackAck(NamedTuple):
    """Acknowledgement of a masked readback (no frame content travels)."""

    frame_index: int

    def encode(self) -> bytes:
        return bytes([OPCODE_MASKED_READBACK_ACK]) + self.frame_index.to_bytes(
            4, "big"
        )


@_message
class ReadbackBatchResponse(NamedTuple):
    """One MTU-sized fragment of a batched readback.

    ``base_slot`` is the plan position of the fragment's first frame;
    ``frame_count`` frames of equal size are concatenated in ``data``.
    The 4-byte length field (not ``_encode_blob``) keeps the format
    future-proof for jumbo frames, though the prover's fragmenter never
    exceeds one ARQ payload today.
    """

    base_slot: int
    frame_count: int
    data: bytes

    def encode(self) -> bytes:
        if self.base_slot < 0 or self.base_slot > 0xFFFFFFFF:
            raise WireFormatError(f"batch base slot {self.base_slot} out of range")
        if not 1 <= self.frame_count <= 0xFFFF:
            raise WireFormatError(
                f"batch response count {self.frame_count} out of range"
            )
        return (
            bytes([OPCODE_READBACK_BATCH_RESPONSE])
            + self.base_slot.to_bytes(4, "big")
            + self.frame_count.to_bytes(2, "big")
            + len(self.data).to_bytes(4, "big")
            + self.data
        )


@_message
class MacChecksumResponse(NamedTuple):
    """The finalized MAC tag."""

    tag: bytes

    def encode(self) -> bytes:
        return bytes([OPCODE_MAC_RESPONSE]) + _encode_blob(self.tag, OPCODE_MAC_RESPONSE)


Command = Union[
    IcapConfigCommand,
    IcapConfigBatchCommand,
    IcapReadbackCommand,
    IcapReadbackBatchCommand,
    IcapReadbackMaskedCommand,
    MacChecksumCommand,
]
Response = Union[
    ConfigAck,
    MaskedReadbackAck,
    ReadbackBatchResponse,
    ReadbackResponse,
    MacChecksumResponse,
]


def decode_command(data: bytes) -> Command:
    """Decode a verifier → prover message."""
    if not data:
        raise WireFormatError("empty command")
    opcode = data[0]
    if opcode == OPCODE_ICAP_CONFIG:
        if len(data) < 5:
            raise WireFormatError("truncated ICAP_config")
        frame_index = int.from_bytes(data[1:5], "big")
        blob, _ = _decode_blob(data, 5, OPCODE_ICAP_CONFIG)
        return IcapConfigCommand(frame_index, blob)
    if opcode == OPCODE_ICAP_READBACK:
        if len(data) < 5:
            raise WireFormatError("truncated ICAP_readback")
        return IcapReadbackCommand(int.from_bytes(data[1:5], "big"))
    if opcode == OPCODE_MAC_CHECKSUM:
        return MacChecksumCommand()
    if opcode == OPCODE_ICAP_READBACK_MASKED:
        if len(data) < 5:
            raise WireFormatError("truncated masked ICAP_readback")
        frame_index = int.from_bytes(data[1:5], "big")
        blob, _ = _decode_blob(data, 5, OPCODE_ICAP_READBACK_MASKED)
        return IcapReadbackMaskedCommand(frame_index, blob)
    if opcode == OPCODE_ICAP_READBACK_BATCH:
        if len(data) < 5:
            raise WireFormatError("truncated batched ICAP_readback")
        indices, _ = _decode_indices(data, 5, OPCODE_ICAP_READBACK_BATCH)
        return IcapReadbackBatchCommand(
            base_slot=int.from_bytes(data[1:5], "big"), frame_indices=indices
        )
    if opcode == OPCODE_ICAP_CONFIG_BATCH:
        indices, header_end = _decode_indices(data, 1, OPCODE_ICAP_CONFIG_BATCH)
        if len(data) < header_end + 4:
            raise WireFormatError("truncated batched ICAP_config payload length")
        length = int.from_bytes(data[header_end : header_end + 4], "big")
        if header_end + 4 + length > len(data):
            raise WireFormatError("truncated batched ICAP_config payload")
        command = IcapConfigBatchCommand(
            frame_indices=indices,
            data=data[header_end + 4 : header_end + 4 + length],
        )
        command.frame_bytes()  # the data must split evenly over the frames
        return command
    raise WireFormatError(f"unknown command opcode {opcode:#04x}")


def decode_response(data: bytes) -> Response:
    """Decode a prover → verifier message."""
    if not data:
        raise WireFormatError("empty response")
    opcode = data[0]
    if opcode == OPCODE_CONFIG_ACK:
        if len(data) < 5:
            raise WireFormatError("truncated ConfigAck")
        return ConfigAck(int.from_bytes(data[1:5], "big"))
    if opcode == OPCODE_READBACK_RESPONSE:
        if len(data) < 5:
            raise WireFormatError("truncated readback response")
        frame_index = int.from_bytes(data[1:5], "big")
        blob, _ = _decode_blob(data, 5, OPCODE_READBACK_RESPONSE)
        return ReadbackResponse(frame_index, blob)
    if opcode == OPCODE_MASKED_READBACK_ACK:
        if len(data) < 5:
            raise WireFormatError("truncated masked-readback ack")
        return MaskedReadbackAck(int.from_bytes(data[1:5], "big"))
    if opcode == OPCODE_READBACK_BATCH_RESPONSE:
        if len(data) < 11:
            raise WireFormatError("truncated batched readback response")
        base_slot = int.from_bytes(data[1:5], "big")
        frame_count = int.from_bytes(data[5:7], "big")
        if frame_count < 1:
            raise WireFormatError("batched readback response of 0 frames")
        length = int.from_bytes(data[7:11], "big")
        if 11 + length > len(data):
            raise WireFormatError("truncated batched readback payload")
        return ReadbackBatchResponse(base_slot, frame_count, data[11 : 11 + length])
    if opcode == OPCODE_MAC_RESPONSE:
        blob, _ = _decode_blob(data, 1, OPCODE_MAC_RESPONSE)
        return MacChecksumResponse(blob)
    raise WireFormatError(f"unknown response opcode {opcode:#04x}")
