"""The wire format, held by running it.

JustSTART (PAPERS.md) found an RSA authentication bypass in a bitstream
parser by fuzzing it.  Here the parsers a network adversary can reach
are the ARQ trailer parser and the SACHa message codecs, so each is fed
arbitrary bytes and byte-level mutations of real frames recorded from a
SIM-MEDIUM session.  Whatever arrives, a decoder either returns a
message or raises a :class:`~repro.errors.NetworkError` subclass — never
``IndexError``, ``ValueError``, ``struct.error`` or a numpy error that
would escape the session's drop-and-count handling.

The message codecs round-trip both ways.  Every message of every type,
its fields drawn across their full wire widths, decodes back to itself;
and every byte string a decoder accepts starts with the encoding of what
it decoded (what follows is Ethernet padding), so a decoder accepts only
what an encoder can write.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.net_session import NetworkAttestationSession
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import NetworkError, WireFormatError
from repro.fpga.device import SIM_MEDIUM
from repro.net import arq, messages
from repro.net.channel import Channel, LatencyModel
from repro.net.ethernet import MAX_PAYLOAD, EthernetFrame, MacAddress
from repro.net.messages import (
    ConfigAck,
    IcapConfigBatchCommand,
    IcapConfigCommand,
    IcapReadbackBatchCommand,
    IcapReadbackCommand,
    IcapReadbackMaskedCommand,
    MacChecksumCommand,
    MacChecksumResponse,
    MaskedReadbackAck,
    ReadbackBatchResponse,
    ReadbackResponse,
    decode_command,
    decode_response,
)
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng
from tests.net.test_messages import MESSAGE_VALUES

DECODERS = {
    "arq": arq._decode,
    "command": decode_command,
    "response": decode_response,
}


def _record_session(batch: int) -> list:
    """Every ARQ frame and every SACHa message of one session."""
    system = build_sacha_system(SIM_MEDIUM)
    provisioned, record = provision_device(system, "fuzz", seed=4243)
    simulator = Simulator()
    channel = Channel(simulator, LatencyModel(base_ns=5_000.0))
    frames = []
    channel.add_tap(lambda time_ns, direction, frame: frames.append(frame.payload))
    NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        SachaVerifier(record.system, record.mac_key, DeterministicRng(1)),
        DeterministicRng(2),
        readback_batch_frames=batch,
    ).run()
    messages = [arq._decode(frame)[2] for frame in frames]
    return frames + [message for message in messages if message]


@pytest.fixture(scope="module")
def corpus():
    """Real frames of the batch-256 and batch-1 shapes, plus one of each
    message kind no session sends."""
    extra = [
        IcapReadbackMaskedCommand(7, bytes(range(32))).encode(),
        MaskedReadbackAck(7).encode(),
    ]
    return _record_session(256) + _record_session(1) + extra


def _fails_closed(decoder, data: bytes) -> None:
    """``decoder`` raises nothing but a ``NetworkError``, and a SACHa
    message it accepts re-encodes to a prefix of ``data``."""
    try:
        decoded = decoder(data)
    except NetworkError:
        return
    if decoder is not arq._decode:
        assert data.startswith(decoded.encode()), decoded


@st.composite
def _mutation(draw, corpus):
    """A real frame with a few byte flips, overwrites, cuts or insertions."""
    data = bytearray(draw(st.sampled_from(corpus)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(data)))
        kind = draw(st.sampled_from(("flip", "set", "cut", "insert", "truncate")))
        if kind == "flip" and position < len(data):
            data[position] ^= 1 << draw(st.integers(min_value=0, max_value=7))
        elif kind == "set" and position < len(data):
            data[position] = draw(st.sampled_from((0x00, 0x01, 0x7F, 0x80, 0xFF)))
        elif kind == "cut":
            del data[position : position + draw(st.integers(1, 8))]
        elif kind == "insert":
            data[position:position] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "truncate":
            del data[position:]
    return bytes(data)


@pytest.mark.parametrize("name", sorted(DECODERS))
class TestDecodersFailClosed:
    @given(data=st.binary(max_size=2048))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, name, data):
        _fails_closed(DECODERS[name], data)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_real_frames(self, name, corpus, data):
        _fails_closed(DECODERS[name], data.draw(_mutation(corpus)))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_opcode_swapped_real_frames(self, name, corpus, data):
        """A real body under another message's opcode: every length field
        now points somewhere the encoder never meant."""
        frame = bytearray(data.draw(st.sampled_from(corpus)))
        if frame:
            frame[0] = data.draw(st.integers(min_value=0, max_value=0xFF))
        _fails_closed(DECODERS[name], bytes(frame))


U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
COUNTS = st.integers(min_value=1, max_value=0xFFFF)
TOP = 0xFFFFFFFF
TOP_BLOB = b"\xff" * 0xFFFF


@st.composite
def _blobs(draw):
    """Bytes of any length up to 0xFFFF.  Hypothesis keeps its own byte
    strings short, so the length is drawn across the whole width and
    the content comes from a drawn seed."""
    size = draw(st.integers(min_value=0, max_value=0xFFFF))
    return random.Random(draw(U32)).randbytes(size)


@st.composite
def _indices(draw):
    """1..0xFFFF frame indices, each across the full u32 width."""
    count = draw(COUNTS)
    head = draw(st.lists(U32, min_size=1, max_size=min(count, 4)))
    rng = random.Random(draw(U32))
    return tuple(head) + tuple(rng.getrandbits(32) for _ in range(count - len(head)))


@st.composite
def _config_batches(draw):
    """The data of a config batch splits evenly over its frames."""
    indices = draw(_indices())
    frame_bytes = draw(st.integers(min_value=0, max_value=0xFFFF // len(indices)))
    data = random.Random(draw(U32)).randbytes(frame_bytes * len(indices))
    return IcapConfigBatchCommand(indices, data)


#: How each field is drawn, by name, for every message type.
FIELDS = {
    "frame_index": U32,
    "base_slot": U32,
    "frames_applied": U32,
    "frame_count": COUNTS,
    "frame_indices": _indices(),
    "data": _blobs(),
    "mask": _blobs(),
    "tag": _blobs(),
}
DECODER_OF = {type(message): decode for message, decode in MESSAGE_VALUES}


def _messages(kind):
    if kind is IcapConfigBatchCommand:
        return _config_batches()
    return st.builds(kind, **{name: FIELDS[name] for name in kind._fields})


class TestRoundTrip:
    @given(message=st.one_of([_messages(kind) for kind in DECODER_OF]))
    @example(message=IcapConfigCommand(TOP, TOP_BLOB))
    @example(message=IcapReadbackCommand(TOP))
    @example(message=MacChecksumCommand())
    @example(message=IcapReadbackMaskedCommand(TOP, TOP_BLOB))
    @example(message=IcapReadbackBatchCommand(TOP, (TOP,) * 0xFFFF))
    @example(message=IcapConfigBatchCommand((TOP,) * 0xFFFF, TOP_BLOB))
    @example(message=ConfigAck(TOP))
    @example(message=ReadbackResponse(TOP, TOP_BLOB))
    @example(message=MaskedReadbackAck(TOP))
    @example(message=ReadbackBatchResponse(TOP, 0xFFFF, TOP_BLOB))
    @example(message=MacChecksumResponse(TOP_BLOB))
    @settings(max_examples=400, deadline=None)
    def test_decode_inverts_encode(self, message):
        decoded = DECODER_OF[type(message)](message.encode())
        assert type(decoded) is type(message)
        assert decoded == message

    @given(
        opcode=st.sampled_from(sorted(messages._OPCODE_NAMES)),
        body=st.binary(max_size=64),
    )
    @example(opcode=0x06, body=bytes(6))
    @example(opcode=0x07, body=bytes(6))
    @example(opcode=0x07, body=b"\x00\x02" + bytes(8) + b"\x00\x00\x00\x03xyz")
    @example(opcode=0x85, body=bytes(10))
    @settings(max_examples=300, deadline=None)
    def test_accepted_bytes_start_with_their_encoding(self, opcode, body):
        """Short bodies behind every known opcode: what decodes
        re-encodes to the frame's prefix.  The examples are batches of 0
        frames and ragged config data, which no encoder writes."""
        for decoder in (decode_command, decode_response):
            _fails_closed(decoder, bytes([opcode]) + body)


class TestRetiredOpcodes:
    """0x05/0x84 were a second batched-readback pair and 0x08 a telemetry
    handshake; no decoder knows them any more, whatever follows the
    opcode byte."""

    @given(body=st.binary(max_size=64))
    def test_ranged_readback_command_rejected(self, body):
        with pytest.raises(WireFormatError, match="unknown command opcode 0x05"):
            decode_command(b"\x05" + body)

    @given(body=st.binary(max_size=64))
    def test_ranged_readback_response_rejected(self, body):
        with pytest.raises(WireFormatError, match="unknown response opcode 0x84"):
            decode_response(b"\x84" + body)

    @given(body=st.binary(max_size=64))
    def test_trace_hello_rejected(self, body):
        with pytest.raises(WireFormatError, match="unknown command opcode 0x08"):
            decode_command(b"\x08" + body)
        with pytest.raises(WireFormatError, match="unknown response opcode 0x08"):
            decode_response(b"\x08" + body)


MAC_A = MacAddress(0x020000000001)
MAC_B = MacAddress(0x020000000002)


class TestEthernetFrameInvariants:
    @given(ethertype=st.one_of(st.integers(max_value=-1), st.integers(min_value=0x10000)))
    def test_ethertype_out_of_range_rejected(self, ethertype):
        with pytest.raises(NetworkError):
            EthernetFrame(MAC_A, MAC_B, ethertype, b"")

    @given(size=st.integers(min_value=MAX_PAYLOAD + 1, max_value=4 * MAX_PAYLOAD))
    def test_oversized_payload_rejected(self, size):
        with pytest.raises(NetworkError):
            EthernetFrame(MAC_A, MAC_B, 0x88B5, bytes(size))
        frame = EthernetFrame(MAC_A, MAC_B, 0x88B5, b"")
        with pytest.raises(NetworkError):
            frame._replace(payload=bytes(size))

    @given(payload=st.binary(max_size=MAX_PAYLOAD))
    def test_frames_are_immutable_values(self, payload):
        frame = EthernetFrame(MAC_A, MAC_B, 0x88B5, payload)
        for name in ("destination", "source", "ethertype", "payload", "extra"):
            with pytest.raises(AttributeError):
                setattr(frame, name, None)
        assert frame == EthernetFrame(MAC_A, MAC_B, 0x88B5, payload)
        assert frame.wire_bytes() == 8 + 14 + max(len(payload), 46) + 4 + 12
