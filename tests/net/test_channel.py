"""Unit tests for the simulated channel: delivery, latency, taps.

Loss and the other link faults are the fault model's, tested in
``test_faults.py``.
"""

import pytest

from repro.errors import NetworkError
from repro.net.channel import Channel, Endpoint, LatencyModel
from repro.net.ethernet import EthernetFrame, MacAddress
from repro.sim.events import Simulator

MAC_A = MacAddress(0x020000000001)
MAC_B = MacAddress(0x020000000002)


def _pair(latency=LatencyModel()):
    sim = Simulator()
    channel = Channel(sim, latency)
    left, right = Endpoint("left", MAC_A), Endpoint("right", MAC_B)
    channel.connect(left, right)
    return sim, channel, left, right


def _frame(payload=b"ping") -> EthernetFrame:
    return EthernetFrame(MAC_B, MAC_A, 0x88B5, payload)


class TestDelivery:
    def test_frame_reaches_peer(self):
        sim, _, left, right = _pair()
        received = []
        right.handler = received.append
        left.send(_frame())
        sim.run()
        assert len(received) == 1
        assert received[0].payload.startswith(b"ping")

    def test_delivery_time_includes_serialization_and_latency(self):
        sim, _, left, right = _pair(latency=LatencyModel(base_ns=1000.0))
        times = []
        right.handler = lambda frame: times.append(sim.now_ns)
        frame = _frame()
        left.send(frame)
        sim.run()
        assert times[0] == pytest.approx(frame.wire_bytes() * 8.0 + 1000.0)

    def test_bidirectional(self):
        sim, _, left, right = _pair()
        got_left, got_right = [], []
        left.handler = got_left.append
        right.handler = got_right.append
        left.send(_frame(b"to-right"))
        right.send(_frame(b"to-left"))
        sim.run()
        assert len(got_left) == 1 and len(got_right) == 1

    def test_in_order_delivery(self):
        sim, _, left, right = _pair(latency=LatencyModel(base_ns=500.0))
        payloads = []
        right.handler = lambda frame: payloads.append(frame.payload[:1])
        for tag in (b"a", b"b", b"c"):
            left.send(_frame(tag))
        sim.run()
        assert payloads == [b"a", b"b", b"c"]

    def test_counters(self):
        sim, _, left, right = _pair()
        right.handler = lambda frame: None
        left.send(_frame())
        sim.run()
        assert left.frames_sent == 1
        assert right.frames_received == 1
        assert left.bytes_sent == _frame().wire_bytes()


class TestErrors:
    def test_unattached_endpoint_cannot_send(self):
        lonely = Endpoint("lonely", MAC_A)
        with pytest.raises(NetworkError):
            lonely.send(_frame())

    def test_double_connect_rejected(self):
        sim, channel, _, _ = _pair()
        with pytest.raises(NetworkError):
            channel.connect(Endpoint("x", MAC_A), Endpoint("y", MAC_B))


class TestTaps:
    def test_eavesdropping_tap_sees_frames(self):
        sim, channel, left, right = _pair()
        right.handler = lambda frame: None
        seen = []

        def tap(time_ns, direction, frame):
            seen.append((direction, frame.payload[:4]))
            return None

        channel.add_tap(tap)
        left.send(_frame(b"ping"))
        sim.run()
        assert seen == [("left->right", b"ping")]

    def test_rewriting_tap_substitutes_frame(self):
        sim, channel, left, right = _pair()
        received = []
        right.handler = received.append

        def mitm(time_ns, direction, frame):
            return EthernetFrame(
                frame.destination, frame.source, frame.ethertype, b"evil" + bytes(42)
            )

        channel.add_tap(mitm)
        left.send(_frame(b"ping"))
        sim.run()
        assert received[0].payload.startswith(b"evil")
