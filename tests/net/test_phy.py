"""Unit tests for the Gigabit PHY timing model."""

import pytest

from repro.net.ethernet import EthernetFrame, MacAddress
from repro.net.phy import GigabitPhy

DST = MacAddress(0x020000000001)
SRC = MacAddress(0x020000000002)


class TestSerialization:
    def test_gigabit_is_8ns_per_byte(self):
        phy = GigabitPhy()
        frame = EthernetFrame(DST, SRC, 0x88B5, bytes(100))
        assert phy.serialization_ns(frame.wire_bytes()) == pytest.approx(
            frame.wire_bytes() * 8.0
        )

    def test_throughput(self):
        assert GigabitPhy().throughput_bits_per_s() == pytest.approx(1e9)

    def test_custom_rate(self):
        fast_ethernet = GigabitPhy(ns_per_byte=80.0)
        assert fast_ethernet.throughput_bits_per_s() == pytest.approx(1e8)

    def test_minimum_frame_time(self):
        # 84 byte times at 8 ns = 672 ns for a minimum frame.
        frame = EthernetFrame(DST, SRC, 0x88B5, b"")
        assert GigabitPhy().serialization_ns(frame.wire_bytes()) == pytest.approx(672.0)
