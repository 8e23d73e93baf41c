"""Unit tests for the SACHa wire format."""

import pytest

from repro.errors import WireFormatError
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


class TestCommandRoundtrip:
    def test_icap_config(self):
        command = IcapConfigCommand(frame_index=12345, data=b"\xde\xad" * 162)
        decoded = decode_command(command.encode())
        assert decoded == command

    def test_icap_readback(self):
        command = IcapReadbackCommand(frame_index=28_487)
        assert decode_command(command.encode()) == command

    def test_mac_checksum(self):
        assert decode_command(MacChecksumCommand().encode()) == MacChecksumCommand()

    def test_padding_tolerated(self):
        """Ethernet pads short payloads; decoding must ignore the tail."""
        wire = MacChecksumCommand().encode() + bytes(45)
        assert decode_command(wire) == MacChecksumCommand()
        wire = IcapReadbackCommand(7).encode() + bytes(41)
        assert decode_command(wire) == IcapReadbackCommand(7)

    def test_empty_frame_data_allowed(self):
        command = IcapConfigCommand(frame_index=0, data=b"")
        assert decode_command(command.encode()) == command


class TestResponseRoundtrip:
    def test_readback_response(self):
        response = ReadbackResponse(frame_index=99, data=bytes(324))
        assert decode_response(response.encode()) == response

    def test_mac_response(self):
        response = MacChecksumResponse(tag=bytes(range(16)))
        assert decode_response(response.encode()) == response

    def test_config_ack(self):
        decoded = decode_response(ConfigAck(5).encode())
        assert decoded == ConfigAck(5)
        assert decoded.frames_applied == 5

    def test_config_ack_is_cumulative_count(self):
        # The field is a running total, not a frame index: large totals
        # up to the 32-bit wire width must survive the round trip.
        high_water = ConfigAck(frames_applied=0xFFFFFFFF)
        assert decode_response(high_water.encode()) == high_water

    def test_config_ack_range_validated(self):
        with pytest.raises(WireFormatError):
            ConfigAck(-1).encode()
        with pytest.raises(WireFormatError):
            ConfigAck(0x1_0000_0000).encode()


class TestMalformedInput:
    def test_empty_command(self):
        with pytest.raises(WireFormatError):
            decode_command(b"")

    def test_unknown_opcode(self):
        with pytest.raises(WireFormatError):
            decode_command(b"\x7f")
        with pytest.raises(WireFormatError):
            decode_response(b"\x01")

    def test_truncated_config(self):
        full = IcapConfigCommand(1, b"abcd").encode()
        with pytest.raises(WireFormatError):
            decode_command(full[:3])
        with pytest.raises(WireFormatError):
            decode_command(full[:7])  # length prefix promises more data

    def test_truncated_readback_command(self):
        with pytest.raises(WireFormatError):
            decode_command(IcapReadbackCommand(1).encode()[:2])

    def test_frame_index_range(self):
        with pytest.raises(WireFormatError):
            IcapConfigCommand(-1, b"").encode()
        with pytest.raises(WireFormatError):
            IcapReadbackCommand(1 << 32).encode()

    def test_oversized_blob(self):
        with pytest.raises(WireFormatError):
            IcapConfigCommand(0, bytes(70_000)).encode()


class TestBlobDiagnostics:
    """Codec errors must name the message they belong to: a truncated
    blob deep in a batched exchange is undebuggable as a bare offset."""

    def test_oversized_blob_names_opcode(self):
        with pytest.raises(WireFormatError, match="ICAP_config"):
            IcapConfigCommand(0, bytes(70_000)).encode()
        with pytest.raises(WireFormatError, match="MacChecksumResponse"):
            MacChecksumResponse(tag=bytes(70_000)).encode()

    def test_truncated_blob_names_opcode(self):
        full = IcapConfigCommand(1, b"abcd").encode()
        with pytest.raises(WireFormatError, match="ICAP_config"):
            decode_command(full[:7])
        response = ReadbackResponse(frame_index=3, data=bytes(64)).encode()
        with pytest.raises(WireFormatError, match="ReadbackResponse"):
            decode_response(response[:10])

    def test_negative_offset_rejected(self):
        from repro.net.messages import OPCODE_ICAP_CONFIG, _decode_blob

        with pytest.raises(WireFormatError, match="negative"):
            _decode_blob(b"\x00\x01x", -1, OPCODE_ICAP_CONFIG)

    def test_offset_beyond_message_rejected(self):
        from repro.net.messages import OPCODE_ICAP_CONFIG, _decode_blob

        with pytest.raises(WireFormatError, match="beyond"):
            _decode_blob(b"\x00\x01x", 99, OPCODE_ICAP_CONFIG)

    def test_blob_at_exact_cap_round_trips(self):
        command = IcapConfigCommand(0, bytes(0xFFFF))
        assert decode_command(command.encode()) == command


#: One encodable value of every message type, with the decoder that reads it.
MESSAGE_VALUES = [
    (IcapConfigCommand(5, b"\x11" * 8), decode_command),
    (IcapReadbackCommand(5), decode_command),
    (MacChecksumCommand(), decode_command),
    (IcapReadbackMaskedCommand(5, b"\x22" * 8), decode_command),
    (IcapReadbackBatchCommand(5, (1, 2, 9)), decode_command),
    (IcapConfigBatchCommand((4, 5), b"\x33" * 8), decode_command),
    (ConfigAck(5), decode_response),
    (ReadbackResponse(5, b"\x55" * 8), decode_response),
    (MaskedReadbackAck(5), decode_response),
    (ReadbackBatchResponse(5, 2, b"\x66" * 8), decode_response),
    (MacChecksumResponse(b"\x77" * 16), decode_response),
]
MESSAGE_IDS = [type(message).__name__ for message, _ in MESSAGE_VALUES]


@pytest.mark.parametrize("message,decode", MESSAGE_VALUES, ids=MESSAGE_IDS)
class TestMessageValues:
    def test_immutable(self, message, decode):
        with pytest.raises(AttributeError):
            message.frame_index = 1
        for name in message._fields:
            with pytest.raises(AttributeError):
                setattr(message, name, 1)

    def test_hashable(self, message, decode):
        assert message in {message}
        assert {message: 1}[type(message)(*message)] == 1

    def test_equals_its_own_decode(self, message, decode):
        decoded = decode(message.encode())
        assert type(decoded) is type(message)
        assert decoded == message
        assert not decoded != message

    def test_unequal_to_other_types_with_the_same_fields(self, message, decode):
        fields = tuple(message)
        assert message != fields and fields != message
        assert not message == fields and not fields == message
        for other, _ in MESSAGE_VALUES:
            if type(other) is type(message) or len(other) != len(message):
                continue
            lookalike = type(other)(*fields)
            assert message != lookalike and lookalike != message
            assert not message == lookalike and not lookalike == message


def test_same_fields_different_types_are_unequal():
    assert IcapReadbackCommand(5) != MaskedReadbackAck(5)
    assert ConfigAck(5) != (5,)
    assert (5,) != ConfigAck(5)
    assert MacChecksumCommand() != ()
    assert len({IcapReadbackCommand(5), MaskedReadbackAck(5), ConfigAck(5)}) == 3
