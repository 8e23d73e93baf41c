"""Unit tests for Ethernet framing."""

import pytest

from repro.errors import NetworkError
from repro.net.ethernet import MAX_PAYLOAD, MIN_PAYLOAD, EthernetFrame, MacAddress

DST = MacAddress.from_string("02:00:00:00:00:01")
SRC = MacAddress.from_string("02:00:00:00:00:02")


def _frame(payload: bytes) -> EthernetFrame:
    return EthernetFrame(
        destination=DST, source=SRC, ethertype=0x88B5, payload=payload
    )


class TestMacAddress:
    def test_string_roundtrip(self):
        assert str(DST) == "02:00:00:00:00:01"

    def test_bytes(self):
        assert DST.to_bytes() == b"\x02\x00\x00\x00\x00\x01"

    def test_malformed_string(self):
        with pytest.raises(NetworkError):
            MacAddress.from_string("not-a-mac")
        with pytest.raises(NetworkError):
            MacAddress.from_string("02:00:00:00:00")
        with pytest.raises(NetworkError):
            MacAddress.from_string("02:00:00:00:00:1zz")

    def test_out_of_range_value(self):
        with pytest.raises(NetworkError):
            MacAddress(1 << 48)


class TestFraming:
    def test_roundtrip(self):
        frame = _frame(b"hello sacha" + bytes(40))
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert parsed.destination == DST
        assert parsed.source == SRC
        assert parsed.ethertype == 0x88B5
        assert parsed.payload.startswith(b"hello sacha")

    def test_short_payload_is_padded(self):
        frame = _frame(b"x")
        assert len(frame.padded_payload()) == MIN_PAYLOAD
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert len(parsed.payload) == MIN_PAYLOAD

    def test_fcs_detects_corruption(self):
        wire = bytearray(_frame(bytes(50)).to_bytes())
        wire[20] ^= 0x01
        with pytest.raises(NetworkError):
            EthernetFrame.from_bytes(bytes(wire))

    def test_runt_frame_rejected(self):
        with pytest.raises(NetworkError):
            EthernetFrame.from_bytes(bytes(10))

    def test_oversized_payload_rejected(self):
        with pytest.raises(NetworkError):
            _frame(bytes(MAX_PAYLOAD + 1))

    def test_bad_ethertype_rejected(self):
        with pytest.raises(NetworkError):
            EthernetFrame(DST, SRC, 0x10000, b"")


class TestWireSize:
    def test_minimum_frame_wire_bytes(self):
        # preamble 8 + header 14 + payload 46 + FCS 4 + IFG 12 = 84
        assert _frame(b"").wire_bytes() == 84

    def test_frame_payload_wire_bytes(self):
        # A SACHa readback response on the real part: 331-byte payload.
        assert _frame(bytes(331)).wire_bytes() == 8 + 14 + 331 + 4 + 12
