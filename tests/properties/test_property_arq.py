"""Property-based tests for ARQ delivery under injected faults.

The contract under test: whatever combination of faults the channel
throws at it — loss, corruption, duplication, reordering, in any mix —
the ARQ layer delivers every payload exactly once and in order, as long
as the link is not permanently dead.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.arq import ArqLink, ArqTuning
from repro.net.channel import Channel, Endpoint, LatencyModel
from repro.net.ethernet import MacAddress
from repro.net.faults import FaultModel, FaultProfile
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

MAC_A = MacAddress(0x020000000031)
MAC_B = MacAddress(0x020000000032)

# Every subset of {loss, corruption, duplication, reorder}: 16 combos.
FAULT_COMBOS = [
    combo
    for bits in itertools.product((False, True), repeat=4)
    for combo in [
        {
            "loss": bits[0],
            "corrupt": bits[1],
            "dup": bits[2],
            "reorder": bits[3],
        }
    ]
]


def _combo_id(combo):
    names = [name for name, enabled in combo.items() if enabled]
    return "+".join(names) if names else "clean"


def _profile_for(combo) -> FaultProfile:
    return FaultProfile(
        loss_probability=0.15 if combo["loss"] else 0.0,
        corruption_probability=0.10 if combo["corrupt"] else 0.0,
        duplication_probability=0.10 if combo["dup"] else 0.0,
        reorder_probability=0.15 if combo["reorder"] else 0.0,
        reorder_extra_ns=150_000.0,
    )


def _run_exchange(profile: FaultProfile, seed: int, payloads, window=1):
    simulator = Simulator()
    rng = DeterministicRng(seed)
    model = (
        FaultModel(profile, rng.fork("faults")) if profile.is_active else None
    )
    channel = Channel(
        simulator, LatencyModel(base_ns=1_000.0), fault_model=model
    )
    left_ep, right_ep = Endpoint("left", MAC_A), Endpoint("right", MAC_B)
    channel.connect(left_ep, right_ep)
    give_ups = []
    tuning = ArqTuning(
        initial_timeout_ns=50_000.0,
        min_timeout_ns=20_000.0,
        window=window,
        max_retries=60,
    )
    left = ArqLink(
        simulator,
        left_ep,
        MAC_B,
        tuning,
        rng=rng.fork("arq-left"),
        on_give_up=give_ups.append,
    )
    right = ArqLink(
        simulator,
        right_ep,
        MAC_A,
        tuning,
        rng=rng.fork("arq-right"),
        on_give_up=give_ups.append,
    )
    received = []
    right.handler = received.append
    for payload in payloads:
        left.send(payload)
    simulator.run()
    return received, give_ups, left


@pytest.mark.parametrize("window", [1, 4, 32], ids=lambda w: f"w{w}")
@pytest.mark.parametrize("combo", FAULT_COMBOS, ids=_combo_id)
class TestExactlyOnceInOrder:
    """Exactly-once in-order delivery holds for every fault subset at
    stop-and-wait (window=1) and across sliding-window sizes."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        count=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=8, deadline=None)
    def test_delivery_under_faults(self, combo, window, seed, count):
        payloads = [bytes([index % 256]) * 16 for index in range(count)]
        received, give_ups, left = _run_exchange(
            _profile_for(combo), seed, payloads, window=window
        )
        assert not give_ups, f"link gave up: {give_ups}"
        assert received == payloads  # exactly once, in order
        assert left.idle


@pytest.mark.parametrize("combo", FAULT_COMBOS, ids=_combo_id)
class TestAdaptiveExactlyOnce:
    """The AIMD window never changes the delivery contract: whatever the
    congestion window does, every payload still arrives exactly once and
    in order across the full fault matrix."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        count=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=6, deadline=None)
    def test_delivery_with_adaptive_window(self, combo, seed, count):
        payloads = [bytes([index % 256]) * 16 for index in range(count)]
        received, give_ups, left = _run_exchange(
            _profile_for(combo), seed, payloads, window=8
        )
        assert not give_ups, f"link gave up: {give_ups}"
        assert received == payloads
        assert left.idle
        assert 1 <= left.cwnd <= left.window


class TestAllFaultsAtOnce:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_harsh_profile_still_exactly_once(self, seed):
        profile = FaultProfile(
            loss_probability=0.15,
            corruption_probability=0.10,
            duplication_probability=0.10,
            reorder_probability=0.15,
            truncation_probability=0.05,
            reorder_extra_ns=150_000.0,
        )
        payloads = [bytes([index]) * 24 for index in range(10)]
        received, give_ups, _ = _run_exchange(profile, seed, payloads)
        assert not give_ups
        assert received == payloads

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_reproduces_same_retransmission_count(self, seed):
        profile = FaultProfile.parse("noisy")
        payloads = [bytes([index]) * 16 for index in range(8)]
        _, _, first = _run_exchange(profile, seed, payloads)
        _, _, second = _run_exchange(profile, seed, payloads)
        assert first.retransmissions == second.retransmissions
        assert first.backoff_events == second.backoff_events


class TestWindowOneIsStopAndWait:
    """window=1 reproduces the original stop-and-wait ARQ *exactly*.

    The fingerprints below — telemetry counters, final simulated clock,
    and a SHA-256 over every frame payload crossing the wire — were
    captured from the pre-sliding-window implementation.  Any divergence
    (an extra ACK, a different ACK sequence number, a shifted timer)
    changes at least the wire hash, so this is a byte-level equivalence
    proof over faulty exchanges, not just a behavioural one.  The AIMD
    window has nothing to adapt at window 1, so it counts no halvings
    either.
    """

    # (seed, payload count) -> (retransmissions, backoff_events,
    #   payloads_sent, duplicates_dropped, corrupt_frames_dropped,
    #   final_time_ns, left_frames_sent, right_frames_sent, wire_sha256)
    LEGACY_FINGERPRINTS = {
        (12345, 10): (
            10, 10, 10, 5, 3, 1708068.4945553073, 20, 15,
            "b98627345a22c7a765ca3e17ba6c8ef167bf40a40655238e6e23d8fcce87038e",
        ),
        (777, 6): (
            5, 5, 6, 3, 1, 489571.30353857897, 11, 9,
            "0bdc8bbd1a0f484087acf089d71fffdbdb3af1344e6b24324c4376a82b99fd97",
        ),
        (2026, 12): (
            9, 9, 12, 5, 3, 684109.5716236252, 21, 17,
            "ecafe88bc0404b70051fc5c9014e61c1b58bafb802098c83a27de2babe0c9b8a",
        ),
    }

    HARSH_PROFILE = FaultProfile(
        loss_probability=0.15,
        corruption_probability=0.10,
        duplication_probability=0.10,
        reorder_probability=0.15,
        reorder_extra_ns=150_000.0,
    )

    @pytest.mark.parametrize(
        "seed,count", sorted(LEGACY_FINGERPRINTS), ids=lambda v: str(v)
    )
    def test_window_one_matches_legacy_fingerprint(self, seed, count):
        import hashlib

        simulator = Simulator()
        rng = DeterministicRng(seed)
        model = FaultModel(self.HARSH_PROFILE, rng.fork("faults"))
        channel = Channel(
            simulator, LatencyModel(base_ns=1_000.0), fault_model=model
        )
        left_ep, right_ep = Endpoint("left", MAC_A), Endpoint("right", MAC_B)
        channel.connect(left_ep, right_ep)
        tuning = ArqTuning(
            initial_timeout_ns=50_000.0, min_timeout_ns=20_000.0, window=1,
            max_retries=60,
        )
        give_ups = []
        left = ArqLink(
            simulator, left_ep, MAC_B, tuning,
            rng=rng.fork("arq-left"), on_give_up=give_ups.append,
        )
        right = ArqLink(
            simulator, right_ep, MAC_A, tuning,
            rng=rng.fork("arq-right"), on_give_up=give_ups.append,
        )
        received = []
        right.handler = received.append
        wire = hashlib.sha256()
        channel.add_tap(
            lambda t, d, frame: wire.update(d.encode() + frame.payload) or None
        )
        payloads = [bytes([index % 256]) * 16 for index in range(count)]
        for payload in payloads:
            left.send(payload)
        simulator.run()

        assert not give_ups
        assert received == payloads
        observed = (
            left.retransmissions,
            left.backoff_events,
            left.payloads_sent,
            right.duplicates_dropped,
            left.corrupt_frames_dropped + right.corrupt_frames_dropped,
            simulator.now_ns,
            left_ep.frames_sent,
            right_ep.frames_sent,
            wire.hexdigest(),
        )
        assert observed == self.LEGACY_FINGERPRINTS[(seed, count)]
        assert (left.cwnd_halvings, right.cwnd_halvings) == (0, 0)


def _fingerprint_exchange(seed, count, window, profile):
    """One bursty exchange, fingerprinted: counters, clock, wire hash."""
    import hashlib

    simulator = Simulator()
    rng = DeterministicRng(seed)
    model = (
        FaultModel(profile, rng.fork("faults")) if profile.is_active else None
    )
    channel = Channel(
        simulator, LatencyModel(base_ns=1_000.0), fault_model=model
    )
    left_ep, right_ep = Endpoint("left", MAC_A), Endpoint("right", MAC_B)
    channel.connect(left_ep, right_ep)
    tuning = ArqTuning(
        initial_timeout_ns=50_000.0,
        min_timeout_ns=20_000.0,
        window=window,
        max_retries=60,
    )
    give_ups = []
    left = ArqLink(
        simulator, left_ep, MAC_B, tuning,
        rng=rng.fork("arq-left"), on_give_up=give_ups.append,
    )
    right = ArqLink(
        simulator, right_ep, MAC_A, tuning,
        rng=rng.fork("arq-right"), on_give_up=give_ups.append,
    )
    received = []
    right.handler = received.append
    wire = hashlib.sha256()
    channel.add_tap(
        lambda t, d, frame: wire.update(d.encode() + frame.payload) or None
    )
    payloads = [bytes([index % 256]) * 16 for index in range(count)]
    left.send_many(payloads)
    simulator.run()
    assert not give_ups
    assert received == payloads
    return (
        left.retransmissions,
        left.backoff_events,
        left.payloads_sent,
        right.duplicates_dropped,
        left.corrupt_frames_dropped + right.corrupt_frames_dropped,
        simulator.now_ns,
        left_ep.frames_sent,
        right_ep.frames_sent,
        wire.hexdigest(),
    )


class TestCleanLinkFingerprint:
    """On a clean link the AIMD window starts at its ceiling and never
    moves, so a windowed exchange is pinned byte for byte: counters,
    clock and a SHA-256 over both directions' wire.  Captured when a
    static (non-adaptive) window still existed, where static and
    adaptive links produced exactly these tuples."""

    # window -> same tuple layout as LEGACY_FINGERPRINTS (seed 424242,
    # 20 payloads, no faults).
    CLEAN_FINGERPRINTS = {
        4: (
            0, 0, 20, 0, 0, 16720.0, 20, 5,
            "14d8f66cacbebfdd75cf54bebea38a4253dd1189268e0869dc6437347ec2d557",
        ),
        8: (
            0, 0, 20, 0, 0, 10032.0, 20, 3,
            "7b8fe8c1dbbb7e4237429fcb6e9a7220ed3db5fadafedc0f1684b1deb214c3ed",
        ),
    }

    @pytest.mark.parametrize(
        "window", sorted(CLEAN_FINGERPRINTS), ids=lambda w: f"w{w}"
    )
    def test_clean_link_matches_fingerprint(self, window):
        observed = _fingerprint_exchange(424242, 20, window, FaultProfile())
        assert observed == self.CLEAN_FINGERPRINTS[window]
