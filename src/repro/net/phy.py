"""Gigabit Ethernet PHY timing model.

One byte per cycle of the 125 MHz RX/TX clocks — i.e. 8 ns per byte time,
1 Gb/s.  The PHY converts frame sizes into serialization durations; the
channel adds propagation/stack latency on top.
"""

from __future__ import annotations

from dataclasses import dataclass

GIGABIT_NS_PER_BYTE = 8.0


@dataclass(frozen=True)
class GigabitPhy:
    """Serialization timing of a (Gigabit by default) Ethernet PHY."""

    ns_per_byte: float = GIGABIT_NS_PER_BYTE

    def serialization_ns(self, wire_bytes: int) -> float:
        """Time to clock ``wire_bytes`` onto the wire.

        ``wire_bytes`` is a frame's size on the wire, preamble and IFG
        included (:meth:`EthernetFrame.wire_bytes`).
        """
        return wire_bytes * self.ns_per_byte

    def throughput_bits_per_s(self) -> float:
        return 8e9 / self.ns_per_byte
