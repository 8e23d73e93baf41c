"""Ethernet II framing (802.3 with FCS, preamble and IFG accounting).

The ETH core in the StatPart receives and transmits one byte per 125 MHz
cycle; frame sizes therefore directly set the A1/A3/A8 action timings of
Table 3.  The link layer above (``repro.net.arq``) sets the ethertype
and carries the SACHa wire format in its frames' payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Type, TypeVar

from repro.errors import NetworkError
from repro.utils.crc import Crc32

MIN_PAYLOAD = 46
MAX_PAYLOAD = 1500
HEADER_BYTES = 14  # dst(6) + src(6) + ethertype(2)
FCS_BYTES = 4
PREAMBLE_BYTES = 8  # preamble(7) + SFD(1)
IFG_BYTES = 12  # inter-frame gap, counted in byte times
#: Byte times a frame occupies on the wire beyond its (padded) payload.
_FRAMING_BYTES = PREAMBLE_BYTES + HEADER_BYTES + FCS_BYTES + IFG_BYTES


@dataclass(frozen=True)
class MacAddress:
    """A 48-bit MAC address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise NetworkError(f"MAC address {self.value:#x} does not fit in 48 bits")

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise NetworkError(f"malformed MAC address {text!r}")
        try:
            octets = [int(part, 16) for part in parts]
        except ValueError as exc:
            raise NetworkError(f"malformed MAC address {text!r}") from exc
        if any(not 0 <= octet <= 0xFF for octet in octets):
            raise NetworkError(f"malformed MAC address {text!r}")
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return cls(value)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    def __str__(self) -> str:
        return ":".join(f"{byte:02x}" for byte in self.to_bytes())


_Frame = TypeVar("_Frame", bound="EthernetFrame")


class _FrameFields(NamedTuple):
    destination: MacAddress
    source: MacAddress
    ethertype: int
    payload: bytes


class EthernetFrame(_FrameFields):
    """An Ethernet II frame with computed FCS.

    ``payload`` is the raw upper-layer payload *before* minimum-size
    padding; padding is applied on serialization and cannot be stripped
    on parse (receivers must know their payload length — the SACHa wire
    format is self-delimiting, so this matches reality).

    A frame is an immutable value: a named tuple, validated on
    construction, so the tens of thousands of frames of one networked
    attestation cost one tuple each.
    """

    __slots__ = ()

    def __new__(
        cls,
        destination: MacAddress,
        source: MacAddress,
        ethertype: int,
        payload: bytes,
    ) -> "EthernetFrame":
        if not 0 <= ethertype <= 0xFFFF:
            raise NetworkError(f"ethertype {ethertype:#x} out of range")
        if len(payload) > MAX_PAYLOAD:
            raise NetworkError(
                f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}"
            )
        return tuple.__new__(cls, (destination, source, ethertype, payload))

    @classmethod
    def _make(cls: Type[_Frame], iterable: Iterable[Any]) -> _Frame:
        # ``_replace`` builds through here: keep it behind the checks.
        return cls(*iterable)

    def padded_payload(self) -> bytes:
        if len(self.payload) < MIN_PAYLOAD:
            return self.payload + bytes(MIN_PAYLOAD - len(self.payload))
        return self.payload

    def to_bytes(self) -> bytes:
        """Serialize including FCS (preamble/IFG are timing-only)."""
        body = (
            self.destination.to_bytes()
            + self.source.to_bytes()
            + self.ethertype.to_bytes(2, "big")
            + self.padded_payload()
        )
        return body + Crc32().update(body).digest_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetFrame":
        if len(data) < HEADER_BYTES + MIN_PAYLOAD + FCS_BYTES:
            raise NetworkError(f"runt frame of {len(data)} bytes")
        body, fcs = data[:-FCS_BYTES], data[-FCS_BYTES:]
        if Crc32().update(body).digest_bytes() != fcs:
            raise NetworkError("frame check sequence mismatch")
        return cls(
            destination=MacAddress(int.from_bytes(body[0:6], "big")),
            source=MacAddress(int.from_bytes(body[6:12], "big")),
            ethertype=int.from_bytes(body[12:14], "big"),
            payload=body[14:],
        )

    def wire_bytes(self) -> int:
        """Total byte times on the wire including preamble and IFG."""
        return _FRAMING_BYTES + max(len(self.payload), MIN_PAYLOAD)
