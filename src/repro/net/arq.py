"""Sliding-window ARQ: reliable, exactly-once, in-order delivery.

The SACHa protocol is a strict command/response sequence; a single lost
Ethernet frame deadlocks a naive run.  ``ArqLink`` wraps a channel
endpoint with a selective-repeat automatic-repeat-request layer:

* every payload goes out as ``DATA(seq)`` and is retransmitted on a
  per-sequence timeout until an ``ACK`` covering it arrives; up to
  ``ArqTuning.window`` payloads are in flight at once (window=1 is the
  classic stop-and-wait this layer grew out of, and stays byte-identical
  to it);
* ``ACK(n)`` is *cumulative* — it acknowledges every sequence number up
  to and including ``n`` — and at window > 1 the receiver only answers
  frames whose sender marked them ack-soliciting (the last frame of
  each window-filling or queue-draining burst), so a full pipe costs
  roughly one ACK per window instead of one per frame.  Duplicates and
  out-of-order arrivals are always answered immediately to unstick a
  stalled sender.  At window = 1 every frame solicits, which is exactly
  the stop-and-wait exchange;
* a CRC-32 trailer covers every ARQ frame, so corrupted or truncated
  frames (the fault model's bit flips) are detected and dropped — the
  retransmission path then recovers them like losses;
* the receiver delivers each sequence number exactly once and in order:
  out-of-order arrivals within the window are buffered until the gap
  fills, duplicates are re-acknowledged but not re-delivered;
* frames beyond the receive window are dropped *without* an ACK, so a
  sender whose window outruns the receiver simply retransmits until the
  receiver catches up (the two ends of a link must be tuned with the
  same window — the session guarantees this).

The retransmission timer is adaptive: each clean (non-retransmitted)
round trip feeds a Jacobson/Karels SRTT/RTTVAR estimator, and each
payload's retransmission timeout backs off exponentially with
deterministic jitter while it keeps timing out.

The *send window* adapts too (AIMD, the TCP congestion-control shape):
the effective window starts at the configured ``ArqTuning.window``
ceiling, halves on the first timeout of each loss window — one
multiplicative decrease per window's worth of data, NewReno-style, so a
burst of losses from a single congestion event is not punished
repeatedly — and grows back additively (one payload per window's worth
of clean cumulative ACKs) until it reaches the ceiling again.  A clean
link therefore never leaves the ceiling, and a window-1 link has
nothing to adapt; the adaptation is pure float arithmetic over the
link's own loss signal, so trajectories are seed-deterministic and
identical across processes.  When ``ArqTuning.max_retries`` is
exhausted for any payload the link declares itself down: with an
``on_give_up`` callback installed it reports the failure and goes
quiescent (so the session above can degrade to an ``inconclusive``
verdict); without one it raises, preserving the fail-fast behaviour of
simple tests.

Exactly-once, in-order delivery is precisely what the attestation needs:
a duplicated ``ICAP_readback`` would desynchronize the incremental MAC
between prover and verifier.  The layer is protocol-agnostic — it moves
opaque payloads — so it slots under the unmodified SACHa session.
"""

from __future__ import annotations

import hmac
import struct
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, Optional, Tuple

from repro.errors import NetworkError
from repro.net.channel import Endpoint
from repro.net.ethernet import EthernetFrame, MacAddress
from repro.obs import log as obs_log
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.spans import current_span
from repro.sim.events import Event, Simulator
from repro.utils.rng import DeterministicRng

_log = obs_log.get_logger(__name__)

#: Ethertype for ARQ-wrapped traffic (local experimental ethertype 2).
ETHERTYPE_ARQ = 0x88B6

_TYPE_DATA = 0x01
_TYPE_ACK = 0x02
#: DATA that solicits an immediate cumulative ACK (window > 1 only; at
#: window = 1 plain DATA solicits implicitly, keeping the stop-and-wait
#: wire format byte-identical).
_TYPE_DATA_SOLICIT = 0x03

_HEADER = struct.Struct(">BI")  # type(1) + sequence(4)
#: IEEE 802.3 CRC-32 (``zlib.crc32``), little-endian like the Ethernet FCS.
_CRC = struct.Struct("<I")
_HEADER_BYTES = _HEADER.size
_CRC_BYTES = _CRC.size

#: Per-frame ARQ framing cost; the batch codec subtracts this from the
#: Ethernet MTU when sizing payloads.
ARQ_OVERHEAD_BYTES = _HEADER_BYTES + _CRC_BYTES


#: RFC 6298 (2.3): SRTT gain alpha = 1/8, RTTVAR gain beta = 1/4 and
#: RTO = SRTT + K·RTTVAR with K = 4 — the Jacobson/Karels estimator.
_SRTT_GAIN = 1.0 / 8.0
_RTTVAR_GAIN = 1.0 / 4.0
_RTTVAR_WEIGHT = 4.0
#: RFC 6298 (5.5): each consecutive timeout of a payload doubles its RTO.
_BACKOFF_FACTOR = 2.0
#: Up to 10 % seeded jitter on every backed-off timeout, so the two
#: directions of a link do not retransmit in lockstep.
_JITTER_FRACTION = 0.1
#: Ceiling of every RTO, backed off or not (RFC 6298 (2.5) allows any
#: maximum of at least 60 s; a simulated link that stays silent for
#: 0.5 s is down).
MAX_TIMEOUT_NS = 500_000_000.0
#: NewReno-style AIMD (RFC 5681, RFC 6582): halve the window once per
#: loss window, regrow one payload per window's worth of clean ACKs.
_AIMD_DECREASE = 0.5
_AIMD_INCREASE = 1.0


@dataclass(frozen=True)
class ArqTuning:
    """The transport shape of one :class:`ArqLink` (and of a session's two).

    ``window`` bounds how many payloads may be unacknowledged at once
    and is the ceiling of the AIMD congestion window; 1 is stop-and-wait.
    ``initial_timeout_ns`` is the RTO before the first round-trip sample
    and must lie in ``[min_timeout_ns, MAX_TIMEOUT_NS]``, the range every
    RTO is clamped to.  A payload that times out more than
    ``max_retries`` times takes the link down.  The defaults are what
    every networked session runs.
    """

    initial_timeout_ns: float = 2_000_000.0
    min_timeout_ns: float = 200_000.0
    window: int = 8
    max_retries: int = 25

    def __post_init__(self) -> None:
        if self.initial_timeout_ns <= 0:
            raise NetworkError(
                f"ARQ timeout must be positive, got {self.initial_timeout_ns}"
            )
        if not 0 < self.min_timeout_ns <= MAX_TIMEOUT_NS:
            raise NetworkError(
                f"ARQ minimum timeout must be in (0, {MAX_TIMEOUT_NS}] ns, "
                f"got {self.min_timeout_ns}"
            )
        if not self.min_timeout_ns <= self.initial_timeout_ns <= MAX_TIMEOUT_NS:
            raise NetworkError(
                f"ARQ initial timeout {self.initial_timeout_ns} ns lies "
                f"outside [{self.min_timeout_ns}, {MAX_TIMEOUT_NS}] ns "
                "(min_timeout_ns, MAX_TIMEOUT_NS)"
            )
        if self.max_retries < 1:
            raise NetworkError(
                f"ARQ needs at least one retry, got {self.max_retries}"
            )
        if self.window < 1:
            raise NetworkError(f"ARQ window must be >= 1, got {self.window}")

    def clamp(self, timeout_ns: float) -> float:
        return min(max(timeout_ns, self.min_timeout_ns), MAX_TIMEOUT_NS)


def _encode(frame_type: int, sequence: int, payload: bytes = b"") -> bytes:
    body = _HEADER.pack(frame_type, sequence) + payload
    return body + _CRC.pack(zlib.crc32(body))


def _decode(data: bytes) -> Tuple[int, int, bytes]:
    """``(type, sequence, payload)`` of one ARQ frame; NetworkError if bad."""
    if len(data) < _HEADER_BYTES + _CRC_BYTES:
        raise NetworkError("truncated ARQ frame")
    view = memoryview(data)
    crc = _CRC.pack(zlib.crc32(view[:-_CRC_BYTES]))
    if not hmac.compare_digest(crc, view[-_CRC_BYTES:]):
        raise NetworkError("ARQ frame CRC mismatch")
    frame_type, sequence = _HEADER.unpack_from(data)
    return frame_type, sequence, data[_HEADER_BYTES:-_CRC_BYTES]


class _InFlight:
    """One unacknowledged DATA payload: its wire bytes and timer state."""

    __slots__ = ("encoded", "retries", "timeout_event", "last_tx_ns")

    def __init__(self, encoded: bytes) -> None:
        self.encoded = encoded
        self.retries = 0
        self.timeout_event: Optional[Event] = None
        self.last_tx_ns = 0.0


class ArqLink:
    """Reliable payload transport over one channel endpoint.

    A port of payload bytes: ``send(payload)`` and ``send_many(payloads)``
    queue them for the peer, and ``handler(payload)`` receives each one
    the peer sent, exactly once and in order.  Only the link's own
    DATA/ACK frames are Ethernet frames.
    """

    def __init__(
        self,
        simulator: Simulator,
        endpoint: Endpoint,
        peer_mac: MacAddress,
        tuning: Optional[ArqTuning] = None,
        rng: Optional[DeterministicRng] = None,
        on_give_up: Optional[Callable[[NetworkError], None]] = None,
    ) -> None:
        self._simulator = simulator
        self._endpoint = endpoint
        self._peer_mac = peer_mac
        self._tuning = tuning if tuning is not None else ArqTuning()
        self._window = self._tuning.window
        # AIMD state: the effective window starts at the configured
        # ceiling, so a link that never loses never adapts.  ``_recovery_until``
        # marks the highest sequence sent when the window last halved;
        # timeouts at or below it belong to the same loss window and do
        # not halve again (NewReno-style single decrease per window).
        self._cwnd = float(self._window)
        self._recovery_until = -1
        self._rng = rng
        self.on_give_up = on_give_up
        endpoint.handler = self._on_frame

        self.handler: Optional[Callable[[bytes], None]] = None
        self._send_queue: Deque[bytes] = deque()
        self._next_tx_sequence = 0
        # Selective repeat: every unacknowledged payload keeps its own
        # encoded bytes, retry count and timeout event, keyed by sequence
        # number in transmit order.
        self._in_flight: "OrderedDict[int, _InFlight]" = OrderedDict()
        self._expected_rx_sequence = 0
        # Out-of-order arrivals within the receive window, awaiting the
        # gap-filling sequence number: sequence -> (payload, solicited).
        self._rx_buffer: Dict[int, Tuple[bytes, bool]] = {}
        self._failed: Optional[NetworkError] = None

        # Jacobson/Karels estimator state; RTO starts at the configured
        # initial timeout until the first clean sample arrives.
        self._srtt_ns: Optional[float] = None
        self._rttvar_ns = 0.0
        self._rto_ns = self._tuning.initial_timeout_ns

        self.payloads_sent = 0
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self.corrupt_frames_dropped = 0
        self.backoff_events = 0
        self.cwnd_halvings = 0

        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "sacha_arq_window",
                "Configured ARQ send-window size, by endpoint",
                labels=("endpoint",),
            ).set(float(self._window), endpoint=self._endpoint.name)
            self._observe_cwnd(registry)

    @property
    def failed(self) -> Optional[NetworkError]:
        """The give-up error, if this link has declared itself down."""
        return self._failed

    @property
    def rto_ns(self) -> float:
        """The current (pre-backoff) retransmission timeout."""
        return self._rto_ns

    @property
    def window(self) -> int:
        """The configured send-window size (the AIMD ceiling)."""
        return self._window

    @property
    def cwnd(self) -> int:
        """The effective (AIMD-governed) send window."""
        return max(1, int(self._cwnd))

    # -- sending -----------------------------------------------------------------

    def send(self, payload: bytes) -> None:
        """Queue one payload for reliable delivery to the peer."""
        if self._failed is not None:
            raise NetworkError(
                f"ARQ link from {self._endpoint.name} is down: {self._failed}"
            )
        self._send_queue.append(payload)
        self._pump()

    def send_many(self, payloads: Iterable[bytes]) -> None:
        """Queue a burst of payloads, then start transmitting.

        Enqueueing the whole burst before the first transmission lets the
        pump see the burst's true tail, so only window-filling frames and
        the final frame solicit ACKs — one cumulative ACK per window's
        worth of traffic instead of one per frame.
        """
        if self._failed is not None:
            raise NetworkError(
                f"ARQ link from {self._endpoint.name} is down: {self._failed}"
            )
        self._send_queue.extend(payloads)
        self._pump()

    def _pump(self) -> None:
        pumped = 0
        registry = get_registry()
        active = current_span() if registry.enabled else None
        window = self.cwnd
        queue = self._send_queue
        in_flight = self._in_flight
        while queue and len(in_flight) < window:
            payload = queue.popleft()
            sequence = self._next_tx_sequence
            self._next_tx_sequence += 1
            if self._window == 1:
                frame_type = _TYPE_DATA
            else:
                # Solicit an ACK from the frame that fills the window or
                # drains the queue — the burst cannot grow past it, so
                # one cumulative ACK covers the whole burst.
                filling = len(in_flight) + 1 >= window
                frame_type = (
                    _TYPE_DATA_SOLICIT if filling or not queue else _TYPE_DATA
                )
            entry = _InFlight(_encode(frame_type, sequence, payload))
            in_flight[sequence] = entry
            self.payloads_sent += 1
            if active is not None:
                active.add_event(
                    "arq.send",
                    seq=sequence,
                    endpoint=self._endpoint.name,
                    solicit=frame_type != _TYPE_DATA,
                )
            self._transmit(sequence, entry)
            pumped += 1
        if pumped and registry.enabled:
            registry.counter(
                "sacha_arq_payloads_total",
                "Distinct payloads entered into ARQ transmission",
            ).inc(pumped)
            self._observe_in_flight(registry)

    def _observe_in_flight(self, registry: MetricsRegistry) -> None:
        if registry.enabled:
            registry.gauge(
                "sacha_arq_in_flight",
                "Unacknowledged ARQ payloads currently outstanding, by endpoint",
                labels=("endpoint",),
            ).set(float(len(self._in_flight)), endpoint=self._endpoint.name)

    def _current_timeout_ns(self, retries: int) -> float:
        """RTO backed off for the current retry, with deterministic jitter."""
        timeout = self._rto_ns * (_BACKOFF_FACTOR**retries)
        if self._rng is not None:
            timeout *= 1.0 + _JITTER_FRACTION * self._rng.random()
        return self._tuning.clamp(timeout)

    def _transmit(self, sequence: int, entry: _InFlight) -> None:
        entry.last_tx_ns = self._simulator.now_ns
        self._endpoint.send(
            EthernetFrame(
                self._peer_mac, self._endpoint.mac, ETHERTYPE_ARQ, entry.encoded
            )
        )
        entry.timeout_event = self._simulator.schedule(
            self._current_timeout_ns(entry.retries),
            lambda: self._on_timeout(sequence),
            label="arq-timeout",
        )

    def _on_timeout(self, sequence: int) -> None:
        entry = self._in_flight.get(sequence)
        if entry is None or self._failed is not None:
            return
        entry.retries += 1
        registry = get_registry()
        max_retries = self._tuning.max_retries
        if entry.retries > max_retries:
            error = NetworkError(
                f"ARQ gave up after {max_retries} retransmissions "
                f"(link from {self._endpoint.name} is down?)"
            )
            self._failed = error
            for pending in self._in_flight.values():
                if pending.timeout_event is not None:
                    pending.timeout_event.cancel()
            self._in_flight.clear()
            self._send_queue.clear()
            if registry.enabled:
                registry.counter(
                    "sacha_arq_give_ups_total",
                    "ARQ links that exhausted their retransmission budget",
                ).inc()
                active = current_span()
                if active is not None:
                    active.add_event(
                        "arq.give_up",
                        seq=sequence,
                        endpoint=self._endpoint.name,
                        retries=max_retries,
                    )
                _log.warning(
                    "arq_give_up",
                    endpoint=self._endpoint.name,
                    retries=max_retries,
                )
            if self.on_give_up is not None:
                self.on_give_up(error)
                return
            raise error
        self.retransmissions += 1
        self.backoff_events += 1
        if registry.enabled:
            registry.counter(
                "sacha_arq_retransmissions_total",
                "DATA frames retransmitted after a timeout",
            ).inc()
            registry.counter(
                "sacha_arq_backoff_events_total",
                "Retransmission timeouts that grew the backoff window",
            ).inc()
            active = current_span()
            if active is not None:
                active.add_event(
                    "arq.retransmit",
                    seq=sequence,
                    endpoint=self._endpoint.name,
                    retry=entry.retries,
                )
        self._cwnd_on_loss(sequence)
        self._transmit(sequence, entry)

    # -- AIMD window adaptation ----------------------------------------------------

    def _cwnd_on_loss(self, sequence: int) -> None:
        """Multiplicative decrease: halve once per loss window.

        A timeout for a sequence at or below ``_recovery_until`` belongs
        to a loss window the link already reacted to — a single
        congestion event typically costs several frames of one burst, and
        halving for each would collapse the window to 1 on any blip.  A
        window-1 link has no window to halve and counts nothing; a wider
        window that has collapsed to 1 keeps counting its halvings, so
        the collapse stays visible.
        """
        if self._window == 1 or sequence <= self._recovery_until:
            return
        self._recovery_until = self._next_tx_sequence - 1
        before = self.cwnd
        self._cwnd = max(1.0, self._cwnd * _AIMD_DECREASE)
        self.cwnd_halvings += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "sacha_arq_cwnd_halvings_total",
                "AIMD multiplicative-decrease events (window halvings)",
            ).inc()
            self._observe_cwnd(registry)
            active = current_span()
            if active is not None:
                active.add_event(
                    "arq.cwnd_halve",
                    seq=sequence,
                    endpoint=self._endpoint.name,
                    cwnd_before=before,
                    cwnd=self.cwnd,
                )

    def _cwnd_on_ack(self, acked_count: int, clean: bool) -> None:
        """Additive increase: one payload per window's worth of clean
        cumulative ACKs (Karn-style, ACKs that retire retransmitted
        payloads are ambiguous and do not grow the window)."""
        if not clean or self._cwnd >= self._window:
            return
        before = self.cwnd
        self._cwnd = min(
            float(self._window),
            self._cwnd + _AIMD_INCREASE * acked_count / self._cwnd,
        )
        registry = get_registry()
        if registry.enabled and self.cwnd != before:
            self._observe_cwnd(registry)
            active = current_span()
            if active is not None:
                active.add_event(
                    "arq.cwnd_grow",
                    endpoint=self._endpoint.name,
                    cwnd_before=before,
                    cwnd=self.cwnd,
                )

    def _observe_cwnd(self, registry) -> None:
        registry.gauge(
            "sacha_arq_cwnd",
            "Effective (AIMD) ARQ send window, by endpoint",
            labels=("endpoint",),
        ).set(float(self.cwnd), endpoint=self._endpoint.name)

    # -- receiving ----------------------------------------------------------------

    def _on_frame(self, frame: EthernetFrame) -> None:
        if self._failed is not None:
            return
        try:
            frame_type, sequence, payload = _decode(frame.payload)
        except NetworkError:
            # A corrupted or truncated frame: indistinguishable from loss
            # at this layer — drop it and let retransmission recover.
            self.corrupt_frames_dropped += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "sacha_arq_corrupt_frames_total",
                    "ARQ frames dropped on CRC or framing failure",
                ).inc()
            return
        if frame_type == _TYPE_ACK:
            self._on_ack(sequence)
            return
        if frame_type not in (_TYPE_DATA, _TYPE_DATA_SOLICIT):
            self.corrupt_frames_dropped += 1
            return
        solicit = frame_type == _TYPE_DATA_SOLICIT or self._window == 1
        if sequence >= self._expected_rx_sequence + self._window:
            # Beyond the receive window: we cannot buffer it, and an ACK
            # would let the sender forget a payload we never stored.  Stay
            # silent; the sender retransmits once the window advances.
            self.duplicates_dropped += 1
            return
        if sequence < self._expected_rx_sequence:
            # Already delivered: the sender missed an ACK.  Echo the
            # duplicate's own sequence — cumulatively it confirms only
            # frames below the delivered prefix, and it is byte-identical
            # to the stop-and-wait ACK the window=1 fingerprints pin.
            self._send_ack(sequence)
            self.duplicates_dropped += 1
            return
        if sequence in self._rx_buffer:
            # Buffered but not yet delivered: echoing its sequence would
            # cumulatively confirm the undelivered gap below it, so only
            # the delivered prefix (if any) may be re-confirmed.
            if self._expected_rx_sequence > 0:
                self._send_ack(self._expected_rx_sequence - 1)
            self.duplicates_dropped += 1
            return
        if sequence != self._expected_rx_sequence:
            # In-window but out of order: hold it until the gap fills,
            # and re-confirm the prefix so the sender keeps only the gap
            # on its timers' critical path.
            if self._expected_rx_sequence > 0:
                self._send_ack(self._expected_rx_sequence - 1)
            self._rx_buffer[sequence] = (payload, solicit)
            return
        # In order.  The ACK must precede delivery (the delivery handler
        # may transmit follow-up traffic; stop-and-wait put the ACK on
        # the wire first and the seeded fingerprints pin that order), so
        # scan the contiguous run this frame completes before delivering.
        run_end = sequence
        while run_end + 1 in self._rx_buffer:
            run_end += 1
            solicit = solicit or self._rx_buffer[run_end][1]
        if solicit:
            self._send_ack(run_end)
        self._deliver(payload)
        while self._expected_rx_sequence <= run_end:
            self._deliver(self._rx_buffer.pop(self._expected_rx_sequence)[0])

    def _send_ack(self, sequence: int) -> None:
        """Cumulative ACK: confirms every sequence number <= ``sequence``."""
        if get_registry().enabled:
            active = current_span()
            if active is not None:
                active.add_event(
                    "arq.ack", seq=sequence, endpoint=self._endpoint.name
                )
        self._endpoint.send(
            EthernetFrame(
                self._peer_mac,
                self._endpoint.mac,
                ETHERTYPE_ARQ,
                _encode(_TYPE_ACK, sequence),
            )
        )

    def _deliver(self, payload: bytes) -> None:
        self._expected_rx_sequence += 1
        if self.handler is not None:
            self.handler(payload)

    def _update_rtt(self, sample_ns: float, registry: MetricsRegistry) -> None:
        """Fold one clean round-trip sample into SRTT/RTTVAR (RFC 6298)."""
        if self._srtt_ns is None:
            self._srtt_ns = sample_ns
            self._rttvar_ns = sample_ns / 2.0
        else:
            deviation = abs(self._srtt_ns - sample_ns)
            self._rttvar_ns += _RTTVAR_GAIN * (deviation - self._rttvar_ns)
            self._srtt_ns += _SRTT_GAIN * (sample_ns - self._srtt_ns)
        self._rto_ns = self._tuning.clamp(
            self._srtt_ns + _RTTVAR_WEIGHT * self._rttvar_ns
        )
        if registry.enabled:
            registry.gauge(
                "sacha_arq_rto_seconds",
                "Current adaptive retransmission timeout, by endpoint",
                labels=("endpoint",),
            ).set(self._rto_ns / 1e9, endpoint=self._endpoint.name)

    def _on_ack(self, sequence: int) -> None:
        if sequence >= self._next_tx_sequence:
            return  # acknowledges something we never sent: bogus/stale
        # Cumulative: retire every in-flight payload up to the acked
        # sequence (the map iterates in transmit = sequence order).
        registry = get_registry()
        in_flight = self._in_flight
        acked = 0
        clean = True
        while in_flight:
            first = next(iter(in_flight))
            if first > sequence:
                break
            entry = in_flight.pop(first)
            if entry.timeout_event is not None:
                entry.timeout_event.cancel()
                entry.timeout_event = None
            if entry.retries:
                clean = False
            # Karn's algorithm: only sample RTT for a never-retransmitted
            # payload this ACK names directly (an ACK of a retransmission
            # or an implicit confirmation is ambiguous).
            if first == sequence and entry.retries == 0:
                sample_ns = self._simulator.now_ns - entry.last_tx_ns
                self._update_rtt(sample_ns, registry)
            acked += 1
        if not acked:
            return  # stale ACK
        self._cwnd_on_ack(acked, clean)
        self._observe_in_flight(registry)
        self._pump()

    @property
    def idle(self) -> bool:
        """Nothing in flight and nothing queued."""
        return not self._in_flight and not self._send_queue
