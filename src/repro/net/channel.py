"""Simulated network channel between verifier and prover.

A :class:`Channel` connects exactly two :class:`Endpoint` objects through
the discrete-event simulator.  Delivery time is PHY serialization plus
the :class:`LatencyModel`'s one-way latency; a
:class:`~repro.net.faults.FaultModel` is the one way a link misbehaves
(it may drop, corrupt, duplicate, truncate or delay a frame), and
:class:`NetworkTap` observers (the paper's local adversary "eavesdropping
and/or controlling the communication") see every frame and may inject
their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.ethernet import EthernetFrame, MacAddress
from repro.net.faults import FaultModel
from repro.net.phy import GigabitPhy
from repro.obs import log as obs_log
from repro.obs.metrics import get_registry
from repro.sim.events import Simulator

_log = obs_log.get_logger(__name__)


@dataclass(frozen=True)
class LatencyModel:
    """Per-frame one-way latency on top of PHY serialization.

    ``base_ns`` models switch store-and-forward plus host network-stack
    time; the lab network of the paper is calibrated in
    ``repro.timing.network`` to ≈246 µs one-way (≈493 µs per command
    round trip), which reproduces the measured 28.5 s protocol duration.
    """

    base_ns: float = 0.0


NetworkTap = Callable[[float, str, EthernetFrame], Optional[EthernetFrame]]
"""Tap signature: (time_ns, direction, frame) -> replacement frame or None.

Returning a frame substitutes it for the original (an in-path adversary);
returning ``None`` leaves the frame untouched (pure eavesdropping is a tap
that stores what it sees and returns ``None``).
"""


class Endpoint:
    """One side of a channel; delivers received frames to a handler."""

    def __init__(self, name: str, mac: MacAddress) -> None:
        self.name = name
        self.mac = mac
        self.handler: Optional[Callable[[EthernetFrame], None]] = None
        self._channel: Optional["Channel"] = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0

    def attach(self, channel: "Channel") -> None:
        if self._channel is not None:
            raise NetworkError(f"endpoint {self.name} is already attached")
        self._channel = channel

    def send(self, frame: EthernetFrame) -> None:
        """Transmit a frame to the peer endpoint."""
        if self._channel is None:
            raise NetworkError(f"endpoint {self.name} is not attached to a channel")
        self._channel.transmit(self, frame)

    def deliver(self, frame: EthernetFrame) -> None:
        self.frames_received += 1
        if self.handler is not None:
            self.handler(frame)


class Channel:
    """A point-to-point full-duplex link with latency, faults and taps."""

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        phy: Optional[GigabitPhy] = None,
        fault_model: Optional[FaultModel] = None,
    ) -> None:
        self._simulator = simulator
        self._latency_ns = latency.base_ns if latency is not None else 0.0
        self._phy = phy if phy is not None else GigabitPhy()
        self._fault_model = fault_model
        # sender -> (peer, direction, event label), resolved in connect().
        self._routes: Dict[Endpoint, Tuple[Endpoint, str, str]] = {}
        self._taps: List[NetworkTap] = []
        self.frames_dropped = 0

    @property
    def simulator(self) -> Simulator:
        return self._simulator

    @property
    def fault_model(self) -> Optional[FaultModel]:
        return self._fault_model

    def connect(self, left: Endpoint, right: Endpoint) -> None:
        if self._routes:
            raise NetworkError("channel already has endpoints")
        left.attach(self)
        right.attach(self)
        for sender, peer in ((left, right), (right, left)):
            direction = f"{sender.name}->{peer.name}"
            self._routes[sender] = (peer, direction, f"deliver {direction}")

    def add_tap(self, tap: NetworkTap) -> None:
        """Register an adversary/observer tap on the channel."""
        self._taps.append(tap)

    def transmit(self, sender: Endpoint, frame: EthernetFrame) -> None:
        """Carry ``frame`` from ``sender`` to its peer.

        Counts the frame into the sender's ``frames_sent`` and
        ``bytes_sent``.  Its wire size is computed once: it gives both
        the byte count and, unless a tap or a fault replaces the frame,
        the PHY serialization delay.
        """
        try:
            peer, direction, label = self._routes[sender]
        except KeyError:
            raise NetworkError(
                f"endpoint {sender.name} is not on this channel"
            ) from None
        wire_bytes = frame.wire_bytes()
        sender.frames_sent += 1
        sender.bytes_sent += wire_bytes
        registry = get_registry()
        obs_on = registry.enabled
        if obs_on:
            registry.counter(
                "sacha_net_frames_sent_total",
                "Ethernet frames offered to the channel, by direction",
                labels=("direction",),
            ).inc(direction=direction)
        for tap in self._taps:
            replacement = tap(self._simulator.now_ns, direction, frame)
            if replacement is not None:
                frame = replacement
                wire_bytes = frame.wire_bytes()
                if obs_on:
                    registry.counter(
                        "sacha_net_tap_injections_total",
                        "Frames substituted by in-path taps (adversaries)",
                    ).inc()
        if self._fault_model is None:
            # Fault-free link: one copy, no extra delay.
            delay = self._phy.serialization_ns(wire_bytes) + self._latency_ns
            self._schedule_delivery(peer, frame, delay, direction, label, obs_on)
            return
        deliveries = self._fault_model.perturb(
            self._simulator.now_ns, direction, frame
        )
        if not deliveries:
            self.frames_dropped += 1
            if obs_on:
                _log.debug(
                    "frame_faulted_away",
                    direction=direction,
                    time_ns=self._simulator.now_ns,
                )
            return
        for delivery in deliveries:
            delivered = delivery.frame
            size = wire_bytes if delivered is frame else delivered.wire_bytes()
            delay = (
                self._phy.serialization_ns(size)
                + self._latency_ns
                + delivery.extra_delay_ns
            )
            self._schedule_delivery(peer, delivered, delay, direction, label, obs_on)

    def _schedule_delivery(
        self,
        peer: Endpoint,
        frame: EthernetFrame,
        delay: float,
        direction: str,
        label: str,
        obs_on: bool,
    ) -> None:
        if obs_on:
            get_registry().histogram(
                "sacha_net_latency_seconds",
                "One-way frame delivery latency (serialization + latency model)",
                labels=("direction",),
                buckets=(1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0),
            ).observe(delay / 1e9, direction=direction)
        self._simulator.schedule(delay, lambda: peer.deliver(frame), label=label)
