"""Unit tests for the resequencing buffer over raw channels."""

import pytest

from repro.errors import NetworkError
from repro.net.channel import Channel, Endpoint, LatencyModel
from repro.net.ethernet import EthernetFrame, MacAddress
from repro.net.resequencer import (
    DEFAULT_DEPTH,
    ETHERTYPE_RSQ,
    RSQ_OVERHEAD_BYTES,
    ResequencerLink,
    _decode,
    _encode,
)
from repro.net.arq import ARQ_OVERHEAD_BYTES
from repro.net.faults import FaultModel, FaultProfile
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

MAC_A = MacAddress(0x020000000021)
MAC_B = MacAddress(0x020000000022)


def _linked_pair(profile=None, seed=7, depth=DEFAULT_DEPTH):
    simulator = Simulator()
    fault_model = (
        FaultModel(profile, DeterministicRng(seed).fork("f"))
        if profile is not None
        else None
    )
    channel = Channel(
        simulator, LatencyModel(base_ns=1_000.0), fault_model=fault_model
    )
    left_ep, right_ep = Endpoint("left", MAC_A), Endpoint("right", MAC_B)
    channel.connect(left_ep, right_ep)
    left = ResequencerLink(left_ep, MAC_B, depth=depth)
    right = ResequencerLink(right_ep, MAC_A, depth=depth)
    return simulator, channel, left, right


class TestCodec:
    def test_round_trip(self):
        encoded = _encode(42, b"payload")
        assert _decode(encoded) == (42, b"payload")

    def test_overhead_constant_matches_framing(self):
        assert len(_encode(0, b"")) == RSQ_OVERHEAD_BYTES

    def test_overhead_fits_inside_arq_budget(self):
        """Batch MTU math is sized for the ARQ's framing; the
        resequencer must never need more."""
        assert RSQ_OVERHEAD_BYTES < ARQ_OVERHEAD_BYTES

    def test_corrupt_crc_rejected(self):
        encoded = bytearray(_encode(1, b"x"))
        encoded[-1] ^= 0xFF
        with pytest.raises(NetworkError, match="CRC"):
            _decode(bytes(encoded))

    def test_truncated_rejected(self):
        with pytest.raises(NetworkError, match="truncated"):
            _decode(b"\x00\x00\x00")


class TestCleanDelivery:
    def test_in_order_exactly_once(self):
        simulator, _, left, right = _linked_pair()
        received = []
        right.handler = received.append
        payloads = [bytes([i]) * 8 for i in range(20)]
        for payload in payloads:
            left.send(payload)
        simulator.run()
        assert received == payloads
        assert left.payloads_sent == 20
        assert right.duplicates_dropped == 0
        assert right.idle

    def test_delivered_frames_use_rsq_ethertype_and_peer_addressing(self):
        simulator, channel, left, right = _linked_pair()
        frames, received = [], []
        channel.add_tap(lambda time_ns, direction, frame: frames.append(frame))
        right.handler = received.append
        left.send(b"addr")
        simulator.run()
        (frame,) = frames
        assert frame.ethertype == ETHERTYPE_RSQ
        assert _decode(frame.payload) == (0, b"addr")
        assert frame.destination == MAC_B
        assert frame.source == MAC_A
        assert received == [b"addr"]

    def test_send_many_is_a_burst_of_sends(self):
        simulator, _, left, right = _linked_pair()
        received = []
        right.handler = received.append
        left.send_many(bytes([i]) for i in range(5))
        simulator.run()
        assert received == [bytes([i]) for i in range(5)]


class TestFaultyDelivery:
    def test_duplicates_dropped(self):
        profile = FaultProfile(duplication_probability=0.4)
        simulator, _, left, right = _linked_pair(profile, seed=11)
        received = []
        right.handler = received.append
        payloads = [bytes([i]) * 8 for i in range(30)]
        for payload in payloads:
            left.send(payload)
        simulator.run()
        assert received == payloads
        assert right.duplicates_dropped > 0

    def test_reordering_resequenced(self):
        profile = FaultProfile(reorder_probability=0.4, reorder_extra_ns=1e5)
        simulator, _, left, right = _linked_pair(profile, seed=12)
        received = []
        right.handler = received.append
        payloads = [bytes([i]) * 8 for i in range(30)]
        for payload in payloads:
            left.send(payload)
        simulator.run()
        assert received == payloads
        assert right.max_depth_seen > 0
        assert right.idle

    def test_corruption_dropped_not_raised(self):
        profile = FaultProfile(corruption_probability=0.3)
        simulator, _, left, right = _linked_pair(profile, seed=13)
        received = []
        right.handler = received.append
        payloads = [bytes([i]) * 8 for i in range(30)]
        for payload in payloads:
            left.send(payload)
        simulator.run()
        assert right.corrupt_frames_dropped > 0
        # Corruption is loss at this layer: delivery stops at the first
        # gap, but everything delivered is a strict in-order prefix ...
        assert received == payloads[: len(received)]

    def test_loss_leaves_permanent_gap(self):
        """No retransmission: a dropped frame stalls delivery at the gap
        and the simulation drains — the session above fails safe."""
        simulator, channel, left, right = _linked_pair()
        dropped = []

        def drop_second(time_ns, direction, frame):
            if len(dropped) == 0 and left.payloads_sent >= 2:
                dropped.append(frame)
                return EthernetFrame(
                    frame.destination, frame.source, 0x0000, b"\x00" * 8
                )
            return None

        received = []
        right.handler = received.append
        left.send(b"first")
        simulator.run()
        channel.add_tap(drop_second)
        left.send(b"second")
        left.send(b"third")
        simulator.run()
        assert received == [b"first"]
        assert right.buffered == 1  # b"third" held behind the gap
        assert not right.idle

    def test_overflow_beyond_depth_dropped(self):
        simulator, _, left, right = _linked_pair(depth=4)
        received = []
        right.handler = received.append
        # Inject far-future sequence directly: beyond expected + depth.
        right._on_frame(
            EthernetFrame(MAC_B, MAC_A, ETHERTYPE_RSQ, _encode(100, b"far"))
        )
        assert right.overflow_dropped == 1
        assert received == []


class TestValidation:
    def test_depth_must_be_positive(self):
        endpoint = Endpoint("x", MAC_A)
        with pytest.raises(NetworkError, match="depth"):
            ResequencerLink(endpoint, MAC_B, depth=0)
