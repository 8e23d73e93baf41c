"""Network substrate: Ethernet framing, PHY timing, channels, wire format.

The SACHa verifier and prover talk over Gigabit Ethernet; this package
models the frames, the serialization cost at 1 Gb/s, a lossy/latent
channel with eavesdropping taps for the adversary, and the SACHa command
wire format (``ICAP_config`` / ``ICAP_readback`` / ``MAC_checksum``).
"""

from repro.net.arq import ArqLink, ArqTuning
from repro.net.channel import Channel, Endpoint, LatencyModel, NetworkTap
from repro.net.faults import (
    Delivery,
    FaultCounters,
    FaultModel,
    FaultProfile,
    OutageWindow,
)
from repro.net.ethernet import (
    MAX_PAYLOAD,
    MIN_PAYLOAD,
    EthernetFrame,
    MacAddress,
)
from repro.net.messages import (
    IcapConfigCommand,
    IcapReadbackCommand,
    IcapReadbackMaskedCommand,
    MacChecksumCommand,
    MacChecksumResponse,
    MaskedReadbackAck,
    ReadbackResponse,
    decode_command,
    decode_response,
)
from repro.net.phy import GigabitPhy

__all__ = [
    "ArqLink",
    "ArqTuning",
    "Channel",
    "Delivery",
    "FaultCounters",
    "FaultModel",
    "FaultProfile",
    "OutageWindow",
    "Endpoint",
    "LatencyModel",
    "NetworkTap",
    "MAX_PAYLOAD",
    "MIN_PAYLOAD",
    "EthernetFrame",
    "MacAddress",
    "IcapConfigCommand",
    "IcapReadbackCommand",
    "IcapReadbackMaskedCommand",
    "MacChecksumCommand",
    "MacChecksumResponse",
    "MaskedReadbackAck",
    "ReadbackResponse",
    "decode_command",
    "decode_response",
    "GigabitPhy",
]
