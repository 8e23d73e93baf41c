"""Fail-closed wire decoders: hostile bytes raise only ``NetworkError``.

JustSTART (PAPERS.md) found an RSA authentication bypass in a bitstream
parser by fuzzing it.  Here the parsers a network adversary can reach
are the ARQ trailer parser and the SACHa message codecs, so each is fed
arbitrary bytes and byte-level mutations of real frames recorded from a
SIM-MEDIUM session.  Whatever arrives, a decoder either returns a
message or raises a :class:`~repro.errors.NetworkError` subclass — never
``IndexError``, ``ValueError``, ``struct.error`` or a numpy error that
would escape the session's drop-and-count handling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.net_session import NetworkAttestationSession
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import NetworkError, WireFormatError
from repro.fpga.device import SIM_MEDIUM
from repro.net import arq
from repro.net.channel import Channel, LatencyModel
from repro.net.ethernet import MAX_PAYLOAD, EthernetFrame, MacAddress
from repro.net.messages import (
    IcapReadbackMaskedCommand,
    MaskedReadbackAck,
    decode_command,
    decode_response,
)
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

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
    try:
        decoder(data)
    except NetworkError:
        pass


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
