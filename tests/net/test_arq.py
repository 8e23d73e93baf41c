"""Unit tests for the sliding-window ARQ layer."""

import pytest

from repro.errors import NetworkError
from repro.net.arq import MAX_TIMEOUT_NS, ArqLink, ArqTuning
from repro.net.channel import Channel, Endpoint, LatencyModel
from repro.net.ethernet import EthernetFrame, MacAddress
from repro.net.faults import FaultModel, FaultProfile
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

MAC_A = MacAddress(0x020000000011)
MAC_B = MacAddress(0x020000000012)


def _linked_pair(loss=0.0, rng=None, max_retries=25, tuning=None):
    """Two ARQ links over a 1 µs link; by default stop-and-wait with a
    fixed 50 µs RTO floor."""
    simulator = Simulator()
    model = FaultModel(FaultProfile(loss_probability=loss), rng) if loss else None
    channel = Channel(simulator, LatencyModel(base_ns=1_000.0), fault_model=model)
    left_ep, right_ep = Endpoint("left", MAC_A), Endpoint("right", MAC_B)
    channel.connect(left_ep, right_ep)
    if tuning is None:
        tuning = ArqTuning(
            initial_timeout_ns=50_000.0,
            min_timeout_ns=50_000.0,
            window=1,
            max_retries=max_retries,
        )
    left = ArqLink(simulator, left_ep, MAC_B, tuning)
    right = ArqLink(simulator, right_ep, MAC_A, tuning)
    return simulator, channel, left, right


class TestLosslessDelivery:
    def test_single_payload(self):
        simulator, _, left, right = _linked_pair()
        received = []
        right.handler = received.append
        left.send(b"hello")
        simulator.run()
        assert received == [b"hello"]
        assert left.idle

    def test_many_payloads_in_order(self):
        simulator, _, left, right = _linked_pair()
        received = []
        right.handler = lambda payload: received.append(payload[:1])
        for tag in (b"a", b"b", b"c", b"d"):
            left.send(tag)
        simulator.run()
        assert received == [b"a", b"b", b"c", b"d"]
        assert left.retransmissions == 0

    def test_bidirectional(self):
        simulator, _, left, right = _linked_pair()
        got_left, got_right = [], []
        left.handler = got_left.append
        right.handler = got_right.append
        left.send(b"ping")
        right.send(b"pong")
        simulator.run()
        assert got_right == [b"ping"]
        assert got_left == [b"pong"]


class TestLossyDelivery:
    def test_exactly_once_under_loss(self):
        rng = DeterministicRng(99)
        simulator, channel, left, right = _linked_pair(loss=0.25, rng=rng)
        received = []
        right.handler = received.append
        payloads = [bytes([i]) * 8 for i in range(30)]
        for payload in payloads:
            left.send(payload)
        simulator.run()
        assert received == payloads  # exactly once, in order
        assert channel.frames_dropped > 0
        assert left.retransmissions > 0

    def test_lost_ack_does_not_duplicate_delivery(self):
        """Drop only right->left frames (ACKs): data is retransmitted but
        delivered once."""
        simulator, channel, left, right = _linked_pair()
        drop_next_ack = [True]

        def ack_killer(time_ns, direction, frame):
            if direction == "right->left" and drop_next_ack[0]:
                drop_next_ack[0] = False
                # Returning a frame addressed nowhere would be wrong; we
                # emulate loss by substituting an undecodable-but-valid
                # frame the link will ignore... simpler: use channel loss
                # via a poison payload the ARQ treats as stale ACK.
                return EthernetFrame(
                    frame.destination,
                    frame.source,
                    frame.ethertype,
                    b"\x02" + (99).to_bytes(4, "big"),  # stale ACK seq
                )
            return None

        channel.add_tap(ack_killer)
        received = []
        right.handler = received.append
        left.send(b"once")
        simulator.run()
        assert received == [b"once"]
        assert right.duplicates_dropped >= 1  # the retransmitted copy

    def test_gives_up_after_max_retries(self):
        rng = DeterministicRng(1)
        simulator, channel, left, right = _linked_pair(
            loss=0.999999, rng=rng, max_retries=3
        )
        right.handler = lambda payload: None
        left.send(b"doomed")
        with pytest.raises(NetworkError, match="gave up"):
            simulator.run()


def _adaptive_tuning(window=8):
    return ArqTuning(
        initial_timeout_ns=50_000.0, min_timeout_ns=20_000.0, window=window
    )


class TestAdaptiveWindow:
    """AIMD congestion control: additive growth on clean ACK rounds,
    one multiplicative halving per loss window, configured window as
    ceiling."""

    def test_clean_link_never_adapts(self):
        simulator, _, left, right = _linked_pair(tuning=_adaptive_tuning())
        right.handler = lambda payload: None
        for index in range(40):
            left.send(bytes([index]) * 8)
        simulator.run()
        assert left.cwnd == left.window == 8
        assert left.cwnd_halvings == 0

    def test_lossy_link_halves_and_delivers_exactly_once(self):
        rng = DeterministicRng(321)
        simulator, _, left, right = _linked_pair(
            loss=0.25, rng=rng, tuning=_adaptive_tuning()
        )
        received = []
        right.handler = received.append
        payloads = [bytes([i]) * 8 for i in range(40)]
        for payload in payloads:
            left.send(payload)
        simulator.run()
        assert received == payloads
        assert left.cwnd_halvings > 0
        assert 1 <= left.cwnd <= left.window

    def test_one_halving_per_loss_window(self):
        """Timeouts for sequences sent before the last decrease belong to
        the same loss event and must not halve again (NewReno-style)."""
        simulator, _, left, _ = _linked_pair(tuning=_adaptive_tuning())
        left._next_tx_sequence = 10
        left._cwnd_on_loss(3)
        assert left.cwnd == 4
        assert left.cwnd_halvings == 1
        # Sequences <= the recovery mark are the same burst: no change.
        left._cwnd_on_loss(5)
        left._cwnd_on_loss(9)
        assert left.cwnd == 4
        assert left.cwnd_halvings == 1
        # A loss beyond the mark is a new congestion signal.
        left._next_tx_sequence = 20
        left._cwnd_on_loss(12)
        assert left.cwnd == 2
        assert left.cwnd_halvings == 2

    def test_cwnd_floor_is_one(self):
        """A collapsed window stays at 1 and keeps counting its halvings,
        so the collapse stays visible to the health rules."""
        simulator, _, left, _ = _linked_pair(tuning=_adaptive_tuning(window=2))
        for sequence in (5, 15, 25, 35):
            left._next_tx_sequence = sequence + 1
            left._cwnd_on_loss(sequence)
        assert left.cwnd == 1
        assert left.cwnd_halvings == 4

    def test_window_one_counts_no_halvings(self):
        """A window-1 link has no window to halve: a timeout neither
        counts a halving nor exports one."""
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            simulator, _, left, _ = _linked_pair(tuning=_adaptive_tuning(window=1))
            for sequence in (5, 15, 25):
                left._next_tx_sequence = sequence + 1
                left._cwnd_on_loss(sequence)
        assert left.cwnd == 1
        assert left.cwnd_halvings == 0
        assert registry.get("sacha_arq_cwnd_halvings_total") is None

    def test_additive_regrowth_is_capped_at_ceiling(self):
        simulator, _, left, _ = _linked_pair(tuning=_adaptive_tuning(window=4))
        left._next_tx_sequence = 5
        left._cwnd_on_loss(4)
        assert left.cwnd == 2
        for _ in range(100):
            left._cwnd_on_ack(1, clean=True)
        assert left.cwnd == 4
        assert left._cwnd == 4.0  # capped exactly, not drifting past

    def test_dirty_acks_do_not_grow_window(self):
        simulator, _, left, _ = _linked_pair(tuning=_adaptive_tuning(window=4))
        left._next_tx_sequence = 5
        left._cwnd_on_loss(4)
        before = left._cwnd
        left._cwnd_on_ack(3, clean=False)
        assert left._cwnd == before

    def test_deterministic_trajectory(self):
        """Same seed, same faults -> identical cwnd trajectory."""
        def run():
            rng = DeterministicRng(77)
            simulator, _, left, right = _linked_pair(
                loss=0.2, rng=rng, tuning=_adaptive_tuning()
            )
            right.handler = lambda payload: None
            trajectory = []
            original = left._cwnd_on_loss

            def spy(sequence):
                original(sequence)
                trajectory.append(left.cwnd)

            left._cwnd_on_loss = spy
            for index in range(30):
                left.send(bytes([index]) * 8)
            simulator.run()
            return trajectory, left.cwnd_halvings

        assert run() == run()


class TestCrossProcessDeterminism:
    _SCRIPT = """
import json, sys
from repro.net.arq import ArqLink, ArqTuning
from repro.net.channel import Channel, Endpoint, LatencyModel
from repro.net.ethernet import MacAddress
from repro.net.faults import FaultModel, FaultProfile
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

MAC_A, MAC_B = MacAddress(0x020000000011), MacAddress(0x020000000012)
simulator = Simulator()
rng = DeterministicRng(2024)
channel = Channel(
    simulator, LatencyModel(base_ns=1_000.0),
    fault_model=FaultModel(FaultProfile(loss_probability=0.2), rng.fork("loss")),
)
left_ep, right_ep = Endpoint("left", MAC_A), Endpoint("right", MAC_B)
channel.connect(left_ep, right_ep)
tuning = ArqTuning(
    initial_timeout_ns=50_000.0, min_timeout_ns=20_000.0,
    window=8, max_retries=60,
)
left = ArqLink(simulator, left_ep, MAC_B, tuning)
right = ArqLink(simulator, right_ep, MAC_A, tuning)
right.handler = lambda payload: None
trajectory = []
original = left._cwnd_on_loss
def spy(sequence):
    original(sequence)
    trajectory.append(left.cwnd)
left._cwnd_on_loss = spy
for index in range(30):
    left.send(bytes([index]) * 8)
simulator.run()
print(json.dumps({
    "trajectory": trajectory,
    "halvings": left.cwnd_halvings,
    "final_cwnd": left.cwnd,
    "retransmissions": left.retransmissions,
    "now_ns": simulator.now_ns,
}))
"""

    def test_cwnd_trajectory_is_seed_identical_across_processes(self):
        """Hash-seed randomization, dict ordering, interpreter state —
        none of it may leak into the congestion trajectory."""
        import os
        import subprocess
        import sys

        outputs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src = os.path.abspath(
                os.path.join(os.path.dirname(__file__), "..", "..", "src")
            )
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH", "")])
            )
            completed = subprocess.run(
                [sys.executable, "-c", self._SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]
        assert '"halvings"' in outputs[0]


class TestTuningValidation:
    def test_window_must_be_positive(self):
        with pytest.raises(NetworkError, match="window"):
            ArqTuning(window=0)

    @pytest.mark.parametrize("initial", [100_000.0, 2e9])
    def test_initial_timeout_outside_bounds_rejected(self, initial):
        """An initial RTO below the floor or above the ceiling would be
        clamped at its first timeout while ``rto_ns`` still reported it;
        it is a configuration error instead, naming the bounds."""
        with pytest.raises(NetworkError, match=r"outside \[200000.0, 500000000.0\]"):
            ArqTuning(initial_timeout_ns=initial)

    @pytest.mark.parametrize("initial", [200_000.0, MAX_TIMEOUT_NS])
    def test_initial_timeout_at_the_bounds_accepted(self, initial):
        assert ArqTuning(initial_timeout_ns=initial).initial_timeout_ns == initial

    def test_defaults_are_the_session_transport(self):
        tuning = ArqTuning()
        assert (
            tuning.initial_timeout_ns,
            tuning.min_timeout_ns,
            tuning.window,
            tuning.max_retries,
        ) == (2_000_000.0, 200_000.0, 8, 25)


class TestValidation:
    def test_bad_timeout(self):
        with pytest.raises(NetworkError, match="positive"):
            ArqTuning(initial_timeout_ns=0)

    def test_bad_retries(self):
        with pytest.raises(NetworkError, match="retry"):
            ArqTuning(max_retries=0)

    def test_truncated_arq_frame_dropped(self):
        """A truncated frame is indistinguishable from line noise: it is
        counted and dropped, never raised out of the event loop."""
        simulator, _, left, right = _linked_pair()
        right._on_frame(EthernetFrame(MAC_B, MAC_A, 0x88B5, b"\x01"))
        assert right.corrupt_frames_dropped == 1
