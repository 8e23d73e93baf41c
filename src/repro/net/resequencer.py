"""Resequencing buffer: exactly-once, in-order delivery over raw links.

The ARQ layer gives the attestation session a reliable pipe, but a
deployment may already sit on a transport that retransmits for us (or
accept that loss fails the run toward ``inconclusive``) and only need
protection against *duplication* and *reordering* — the two faults that
would silently desynchronize the incremental MAC between prover and
verifier.  ``ResequencerLink`` is that thin layer: a bounded
reorder/dedup buffer above a raw channel endpoint.

* every payload goes out once as ``seq || payload || CRC-32`` under its
  own ethertype — no ACKs, no timers, no retransmission;
* the receiver delivers each sequence number exactly once and in order:
  out-of-order arrivals within ``depth`` of the next expected sequence
  are buffered until the gap fills, duplicates and corrupted frames are
  dropped, frames beyond the buffer are dropped and counted;
* a lost frame leaves a permanent gap: everything buffered behind it
  stays undelivered, the simulation drains, and the session above fails
  the attempt toward ``inconclusive`` — fail-safe, never a wrong
  verdict (the MAC transcript simply never completes).

Every ``reliable=False`` session runs over this layer: the session
streams its whole command schedule as one burst, and a raw channel
delivers each frame after its own serialization delay, so small frames
overtake large ones.  Streaming only needs in-order exactly-once
delivery, not retransmission.  The session sizes ``depth`` to the most
payloads one attempt can send, so no payload is displaced beyond the
buffer.  The layer is a port of payload bytes with the same ``send`` /
``send_many`` / ``handler`` surface as :class:`~repro.net.arq.ArqLink`,
so the session uses either interchangeably.
"""

from __future__ import annotations

import hmac
from typing import Callable, Dict, Iterable, Optional

from repro.errors import NetworkError
from repro.net.channel import Endpoint
from repro.net.ethernet import EthernetFrame, MacAddress
from repro.obs.metrics import get_registry
from repro.utils.crc import Crc32

#: Ethertype for resequencer-wrapped traffic (local experimental
#: ethertype 3; ARQ traffic is 0x88B6).
ETHERTYPE_RSQ = 0x88B7

_HEADER_BYTES = 4  # sequence(4); no type byte — DATA is the only frame
_CRC_BYTES = 4

#: Per-frame resequencer framing cost.  Strictly below
#: :data:`~repro.net.arq.ARQ_OVERHEAD_BYTES`, so payloads sized for the
#: ARQ transport (the batch codec's MTU math) always fit here too.
RSQ_OVERHEAD_BYTES = _HEADER_BYTES + _CRC_BYTES

#: Default reorder/dedup buffer capacity, in frames: the tolerated
#: reorder displacement.  The attestation session passes its own depth,
#: sized to every payload of one attempt.
DEFAULT_DEPTH = 256


def _encode(sequence: int, payload: bytes) -> bytes:
    body = sequence.to_bytes(4, "big") + payload
    return body + Crc32().update(body).digest_bytes()


def _decode(data: bytes):
    if len(data) < _HEADER_BYTES + _CRC_BYTES:
        raise NetworkError("truncated resequencer frame")
    body, crc = data[:-_CRC_BYTES], data[-_CRC_BYTES:]
    if not hmac.compare_digest(Crc32().update(body).digest_bytes(), crc):
        raise NetworkError("resequencer frame CRC mismatch")
    return int.from_bytes(body[:4], "big"), body[4:]


class ResequencerLink:
    """Exactly-once in-order delivery over one raw channel endpoint.

    Same payload surface as :class:`~repro.net.arq.ArqLink` minus
    reliability.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        peer_mac: MacAddress,
        depth: int = DEFAULT_DEPTH,
    ) -> None:
        if depth < 1:
            raise NetworkError(
                f"resequencer depth must be >= 1, got {depth}"
            )
        self._endpoint = endpoint
        self._peer_mac = peer_mac
        self._depth = depth
        endpoint.handler = self._on_frame

        self.handler: Optional[Callable[[bytes], None]] = None
        self._next_tx_sequence = 0
        self._expected_rx_sequence = 0
        # Out-of-order arrivals awaiting the gap-filling sequence number.
        self._rx_buffer: Dict[int, bytes] = {}

        self.payloads_sent = 0
        self.duplicates_dropped = 0
        self.corrupt_frames_dropped = 0
        self.overflow_dropped = 0
        self.max_depth_seen = 0

    @property
    def depth(self) -> int:
        """Configured buffer capacity, in frames."""
        return self._depth

    @property
    def buffered(self) -> int:
        """Out-of-order payloads currently held back."""
        return len(self._rx_buffer)

    @property
    def idle(self) -> bool:
        """The send side never queues; only receive gaps hold state."""
        return not self._rx_buffer

    # -- sending -----------------------------------------------------------------

    def send(self, payload: bytes) -> None:
        """Transmit one payload, exactly once, with sequence and CRC."""
        sequence = self._next_tx_sequence
        self._next_tx_sequence += 1
        self.payloads_sent += 1
        self._endpoint.send(
            EthernetFrame(
                destination=self._peer_mac,
                source=self._endpoint.mac,
                ethertype=ETHERTYPE_RSQ,
                payload=_encode(sequence, payload),
            )
        )

    def send_many(self, payloads: Iterable[bytes]) -> None:
        """Transmit a burst; purely a convenience, nothing is windowed."""
        for payload in payloads:
            self.send(payload)

    # -- receiving ----------------------------------------------------------------

    def _on_frame(self, frame: EthernetFrame) -> None:
        try:
            sequence, payload = _decode(frame.payload)
        except NetworkError:
            # Corrupted or truncated: equivalent to loss at this layer.
            self.corrupt_frames_dropped += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "sacha_resequencer_corrupt_frames_total",
                    "Resequencer frames dropped on CRC or framing failure",
                ).inc()
            return
        if sequence < self._expected_rx_sequence or sequence in self._rx_buffer:
            self._count_duplicate()
            return
        if sequence >= self._expected_rx_sequence + self._depth:
            # Beyond the buffer: nothing retransmits, so this payload is
            # gone — exactly like a loss, the run fails safe upstream.
            self.overflow_dropped += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "sacha_resequencer_overflow_total",
                    "Resequencer frames dropped beyond the reorder buffer",
                ).inc()
            return
        if sequence != self._expected_rx_sequence:
            self._rx_buffer[sequence] = payload
            self._observe_depth()
            return
        # In order: deliver it and the contiguous run it completes.
        self._deliver(payload)
        while self._expected_rx_sequence in self._rx_buffer:
            self._deliver(self._rx_buffer.pop(self._expected_rx_sequence))
        self._observe_depth()

    def _count_duplicate(self) -> None:
        self.duplicates_dropped += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "sacha_resequencer_duplicates_total",
                "Duplicate resequencer frames dropped",
            ).inc()

    def _observe_depth(self) -> None:
        held = len(self._rx_buffer)
        self.max_depth_seen = max(self.max_depth_seen, held)
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "sacha_resequencer_depth",
                "Out-of-order payloads currently buffered, by endpoint",
                labels=("endpoint",),
            ).set(float(held), endpoint=self._endpoint.name)
            registry.histogram(
                "sacha_resequencer_depth_frames",
                "Reorder-buffer occupancy observed per arrival",
                buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
            ).observe(float(held))

    def _deliver(self, payload: bytes) -> None:
        self._expected_rx_sequence += 1
        if self.handler is not None:
            self.handler(payload)
