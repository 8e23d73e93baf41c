"""Unit tests for the deterministic fault-injection layer."""

import pytest

from repro.errors import NetworkError
from repro.net.channel import Channel, Endpoint, LatencyModel
from repro.net.ethernet import EthernetFrame, MacAddress
from repro.net.faults import (
    FaultModel,
    FaultProfile,
    OutageWindow,
    parse_duration_ns,
)
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

MAC_A = MacAddress(0x020000000021)
MAC_B = MacAddress(0x020000000022)


def _frame(payload=b"x" * 32):
    return EthernetFrame(MAC_B, MAC_A, 0x88B5, payload)


class TestProfileValidation:
    def test_probabilities_out_of_range_rejected(self):
        with pytest.raises(NetworkError):
            FaultProfile(loss_probability=1.5)
        with pytest.raises(NetworkError):
            FaultProfile(corruption_probability=-0.1)

    def test_empty_outage_window_rejected(self):
        with pytest.raises(NetworkError):
            OutageWindow(5.0, 5.0)
        with pytest.raises(NetworkError):
            OutageWindow(-1.0, 4.0)

    def test_stochastic_profile_needs_rng(self):
        with pytest.raises(NetworkError, match="rng"):
            FaultModel(FaultProfile(loss_probability=0.1), rng=None)

    def test_pure_outage_profile_needs_no_rng(self):
        model = FaultModel(
            FaultProfile(outages=(OutageWindow(0.0, 10.0),)), rng=None
        )
        assert model.perturb(5.0, "a->b", _frame()) == []


class TestProfileParsing:
    def test_named_profiles(self):
        assert FaultProfile.parse("clean") == FaultProfile()
        assert FaultProfile.parse("lossy").loss_probability == 0.05
        assert FaultProfile.parse("harsh").truncation_probability > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(NetworkError, match="unknown fault profile"):
            FaultProfile.parse("bogus")

    def test_key_value_spec(self):
        profile = FaultProfile.parse(
            "loss=0.05,corrupt=0.02,dup=0.01,reorder=0.03,trunc=0.01"
        )
        assert profile.loss_probability == 0.05
        assert profile.corruption_probability == 0.02
        assert profile.duplication_probability == 0.01
        assert profile.reorder_probability == 0.03
        assert profile.truncation_probability == 0.01

    def test_outage_spec_with_units(self):
        profile = FaultProfile.parse("outage=5ms+50ms,outage=1s+2s")
        assert profile.outages == (
            OutageWindow(5e6, 55e6),
            OutageWindow(1e9, 3e9),
        )

    def test_bad_spec_rejected(self):
        with pytest.raises(NetworkError):
            FaultProfile.parse("loss=not-a-number")
        with pytest.raises(NetworkError):
            FaultProfile.parse("volume=11")
        with pytest.raises(NetworkError):
            FaultProfile.parse("outage=5ms")

    def test_duration_units(self):
        assert parse_duration_ns("50ms") == 50e6
        assert parse_duration_ns("250us") == 250e3
        assert parse_duration_ns("3s") == 3e9
        assert parse_duration_ns("42") == 42.0


class TestFaultPrimitives:
    def test_outage_swallows_everything_inside_window(self):
        model = FaultModel(
            FaultProfile(outages=(OutageWindow(100.0, 200.0),))
        )
        assert model.perturb(150.0, "a->b", _frame()) == []
        assert len(model.perturb(250.0, "a->b", _frame())) == 1
        assert model.counters.outage_dropped == 1

    def test_corruption_changes_payload_same_length(self):
        model = FaultModel(
            FaultProfile(corruption_probability=0.999999),
            DeterministicRng(7),
        )
        frame = _frame()
        deliveries = model.perturb(0.0, "a->b", frame)
        assert len(deliveries) == 1
        corrupted = deliveries[0].frame
        assert corrupted.payload != frame.payload
        assert len(corrupted.payload) == len(frame.payload)
        assert model.counters.corrupted == 1

    def test_duplication_yields_two_copies(self):
        model = FaultModel(
            FaultProfile(duplication_probability=0.999999),
            DeterministicRng(8),
        )
        deliveries = model.perturb(0.0, "a->b", _frame())
        assert len(deliveries) == 2
        assert model.counters.duplicated == 1

    def test_truncation_shortens_payload(self):
        model = FaultModel(
            FaultProfile(truncation_probability=0.999999),
            DeterministicRng(9),
        )
        deliveries = model.perturb(0.0, "a->b", _frame())
        assert len(deliveries[0].frame.payload) < 32
        assert model.counters.truncated == 1

    def test_reordering_adds_delivery_delay(self):
        model = FaultModel(
            FaultProfile(reorder_probability=0.999999, reorder_extra_ns=1e5),
            DeterministicRng(10),
        )
        deliveries = model.perturb(0.0, "a->b", _frame())
        assert deliveries[0].extra_delay_ns >= 1e5

    def test_determinism_same_seed_same_decisions(self):
        def run(seed):
            model = FaultModel(
                FaultProfile.parse("harsh"), DeterministicRng(seed)
            )
            for index in range(200):
                model.perturb(float(index), "a->b", _frame(bytes([index]) * 20))
            return model.counters.as_dict()

        assert run(4242) == run(4242)
        assert run(4242) != run(4243)


class TestChannelIntegration:
    def _channel(self, profile, seed=11):
        simulator = Simulator()
        model = FaultModel(profile, DeterministicRng(seed))
        channel = Channel(
            simulator, LatencyModel(base_ns=1_000.0), fault_model=model
        )
        left, right = Endpoint("left", MAC_A), Endpoint("right", MAC_B)
        channel.connect(left, right)
        return simulator, channel, left, right, model

    def test_loss_drops_frames_on_the_channel(self):
        simulator, channel, left, right, model = self._channel(
            FaultProfile(loss_probability=0.5), seed=5
        )
        received = []
        right.handler = received.append
        for _ in range(200):
            left.send(_frame())
        simulator.run()
        assert channel.frames_dropped == model.counters.lost > 0
        assert len(received) + channel.frames_dropped == 200
        assert 40 < len(received) < 160

    def test_outage_drops_frames_on_the_channel(self):
        simulator, channel, left, right, model = self._channel(
            FaultProfile(outages=(OutageWindow(0.0, 1e9),))
        )
        received = []
        right.handler = lambda frame: received.append(frame.payload)
        left.send(_frame())
        simulator.run()
        assert received == []
        assert channel.frames_dropped == 1
        assert model.counters.outage_dropped == 1

    def test_duplication_delivers_twice_on_raw_channel(self):
        simulator, _, left, right, _ = self._channel(
            FaultProfile(duplication_probability=0.999999)
        )
        received = []
        right.handler = lambda frame: received.append(frame.payload)
        left.send(_frame(b"twice" * 4))
        simulator.run()
        assert received == [b"twice" * 4] * 2

    def test_reordering_lets_later_frame_overtake(self):
        simulator, _, left, right, _ = self._channel(
            # Only the first draw reorders with these seeds is not
            # guaranteed; force reordering on all and rely on jittered
            # extra delays to shuffle arrival order relative to offer
            # order at least once across the batch.
            FaultProfile(reorder_probability=0.5, reorder_extra_ns=5e5),
            seed=13,
        )
        received = []
        right.handler = lambda frame: received.append(frame.payload)
        sent = [bytes([index]) * 8 for index in range(16)]
        for payload in sent:
            left.send(_frame(payload))
        simulator.run()
        assert sorted(received) == sorted(sent)
        assert received != sent  # at least one pair swapped
