"""Event-driven attestation over the simulated Ethernet channel.

:func:`run_attestation` in ``repro.core.protocol`` accounts time with the
calibrated Table-3 action model.  :class:`NetworkAttestationSession`
instead runs the protocol *through the network substrate*: every command
and response is a real Ethernet frame crossing a :class:`Channel` with
serialization and latency, the prover is an endpoint handler, and the
verifier is a state machine driven by deliveries.  Adversary taps on the
channel see (and may rewrite) every frame — this is the path the
man-in-the-middle attacks use.

There is one link layer and one transport shape, parameterized by
(window, batch).  Every message rides as the payload of a DATA frame of
the sliding-window ARQ (:class:`~repro.net.arq.ArqLink`), shaped by the
session's ``arq_tuning`` (:class:`~repro.net.arq.ArqTuning`); window 1
is stop-and-wait.  The configuration is packed into MTU-sized
``ICAP_config_batch`` commands, the readback plan into
``ICAP_readback_batch`` commands of up to ``readback_batch_frames``
indices (``repro.net.batch``), and the whole schedule is streamed as one
burst ahead of the responses.  The ARQ keeps up to ``window`` payloads
in flight and hands them over exactly once and in order, which
streaming needs: the channel delays each frame by its own serialization
time, so a burst of mixed-size frames arrives out of order (a small
checksum command overtakes a large config batch), and a duplicated or
reordered read-back would desynchronize the incremental MAC.  The prover
confirms the configuration phase with one cumulative
:class:`~repro.net.messages.ConfigAck` just before it handles the first
read-back batch, and the verifier appends each response fragment to one
sweep buffer in plan order, which it judges once the tag has arrived.
A batch of one frame is the paper's per-frame exchange; CMAC is
chunking-invariant, so the tag does not depend on the shape.  The
plan-ordered fragment cursor keeps the sweep aligned with the plan.

The session degrades gracefully instead of raising out of the event
loop.  Undecodable frames (bit corruption or truncation from the fault
model) are dropped and counted; duplicated, late or malformed responses
are ignored; a drained simulation or an ARQ link giving up fails *the
attempt*, and the session retries the whole protocol — fresh nonce,
full reconfiguration, new ARQ state — up to ``max_attempts`` times
before returning an :class:`~repro.core.report.AttestationReport` whose
verdict is ``inconclusive`` with a structured
:class:`~repro.core.report.FailureReason`.  A caller therefore always
gets a verdict: ``accept``, ``reject``, or ``inconclusive``.

Telemetry only observes.  With the active registry enabled, each
attempt runs in a ``session_attempt`` span under the trace id derived
from its nonce (:func:`~repro.obs.trace.trace_id_from_nonce`), and the
prover's command spans open as its children, stamped with the prover's
device id.  Both ends run in one process and record into one registry,
so the id needs no message of its own: the session puts the same frames
on the wire with telemetry on or off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.errors import NetworkError, ProtocolError, ReproError
from repro.core.prover import SachaProver
from repro.core.report import AttestationReport, FailureReason
from repro.core.verifier import SachaVerifier
from repro.net.arq import ArqLink, ArqTuning
from repro.net.batch import pack_config_commands, pack_readback_plan
from repro.net.channel import Channel, Endpoint
from repro.net.ethernet import MacAddress
from repro.net.messages import (
    Command,
    ConfigAck,
    IcapConfigBatchCommand,
    IcapReadbackBatchCommand,
    MacChecksumCommand,
    MacChecksumResponse,
    ReadbackBatchResponse,
    Response,
    decode_command,
    decode_response,
)
from repro.obs import log as obs_log
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.obs.trace import trace_context, trace_id_from_nonce
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

_log = obs_log.get_logger(__name__)

VERIFIER_MAC = MacAddress.from_string("02:00:00:00:00:01")
PROVER_MAC = MacAddress.from_string("02:00:00:00:00:02")


#: Span names for prover-side command handling, by protocol phase.
_PROVER_SPAN_NAMES = {
    IcapConfigBatchCommand: "prover_config",
    IcapReadbackBatchCommand: "prover_readback",
    MacChecksumCommand: "prover_checksum",
}


class _Phase(enum.Enum):
    IDLE = "idle"
    CONFIG = "config"
    READBACK = "readback"
    CHECKSUM = "checksum"
    DONE = "done"
    FAILED = "failed"


@dataclass
class NetworkRunResult:
    report: AttestationReport
    duration_ns: float
    frames_sent_by_verifier: int
    frames_sent_by_prover: int
    attempts: int = 1


class NetworkAttestationSession:
    """One attestation run as network traffic on a channel.

    ``arq_tuning`` shapes both ARQ links (``None`` means
    ``ArqTuning()``); ``readback_batch_frames`` is the number of frame
    indices per ``ICAP_readback_batch`` command, where 1 is the paper's
    per-frame readback step.  The MAC tag is the same for every shape.
    ``reliable`` is accepted and must be true: every session runs over
    the ARQ (the end-to-end benchmark still passes it).
    """

    def __init__(
        self,
        simulator: Simulator,
        channel: Channel,
        prover: SachaProver,
        verifier: SachaVerifier,
        rng: Optional[DeterministicRng] = None,
        reliable: bool = True,
        arq_tuning: Optional[ArqTuning] = None,
        max_attempts: int = 1,
        readback_batch_frames: int = 256,
    ) -> None:
        if max_attempts < 1:
            raise ProtocolError(
                f"session needs at least one attempt, got {max_attempts}"
            )
        if readback_batch_frames < 1:
            raise ProtocolError(
                f"readback batch must be >= 1, got {readback_batch_frames}"
            )
        if not reliable:
            raise ProtocolError("every session runs over the ARQ; reliable=False")
        self._simulator = simulator
        self._channel = channel
        self._prover = prover
        self._verifier = verifier
        self._rng = rng or DeterministicRng(0)
        self._arq_tuning = arq_tuning
        self._batch_frames = readback_batch_frames
        self._max_attempts = max_attempts

        self.verifier_endpoint = Endpoint("vrf", VERIFIER_MAC)
        self.prover_endpoint = Endpoint("prv", PROVER_MAC)
        channel.connect(self.verifier_endpoint, self.prover_endpoint)
        self._verifier_port: ArqLink
        self._prover_port: ArqLink
        self._install_ports()

        self._phase = _Phase.IDLE
        self._nonce = b""
        self._plan: List[int] = []
        self._config_steps = 0
        self._frame_bytes = verifier.system.device.frame_bytes
        self._tag: Optional[bytes] = None
        self._rx_buffers: List[bytes] = []
        self._rx_slot = 0
        self._start_ns = 0.0
        self._end_ns = 0.0
        self._trace_id = ""
        self._link_failure: Optional[NetworkError] = None
        self._config_acked = 0
        self._prover_configs_applied = 0
        self._config_ack_pending = False
        self.undecodable_frames = 0
        self.unexpected_frames = 0
        self.total_retransmissions = 0

    @property
    def tag(self) -> Optional[bytes]:
        """The prover's MAC tag from the last run.

        ``None`` until a checksum response arrived — callers comparing
        transport shapes for byte-identity (benchmarks, the fleet
        controller's history rows) read it here instead of re-deriving
        it from the report.
        """
        return self._tag

    # -- transport plumbing --------------------------------------------------------

    def _install_ports(self) -> None:
        """(Re)create the transport for one attempt.

        Every attempt gets fresh ARQ links on both endpoints: sequence
        numbers and RTT estimators restart together, so a retry is
        indistinguishable from a brand-new session to the peer.
        """
        self._verifier_port = ArqLink(
            self._simulator,
            self.verifier_endpoint,
            PROVER_MAC,
            self._arq_tuning,
            rng=self._rng.fork("arq-vrf"),
            on_give_up=self._on_link_failure,
        )
        self._prover_port = ArqLink(
            self._simulator,
            self.prover_endpoint,
            VERIFIER_MAC,
            self._arq_tuning,
            rng=self._rng.fork("arq-prv"),
            on_give_up=self._on_link_failure,
        )
        self._verifier_port.handler = self._on_verifier_delivery
        self._prover_port.handler = self._on_prover_delivery

    def _on_link_failure(self, error: NetworkError) -> None:
        """Terminal ARQ give-up: record it and let the simulation drain."""
        if self._link_failure is None:
            self._link_failure = error
        _log.warning(
            "session_link_failure", phase=self._phase.value, error=str(error)
        )

    def _unlink_ports(self) -> None:
        """Drop the references that close reference cycles through the
        session once its simulation has drained.

        Endpoints hold their link's receive hook, and each ARQ link holds
        the session's delivery handler and give-up callback.
        Left linked, a finished session and its sweep buffers (~25 MiB on
        a XC6VLX240T) wait for the cyclic GC; unlinked, reference
        counting frees them as soon as the caller lets go.
        """
        self.verifier_endpoint.handler = self.prover_endpoint.handler = None
        for port in (self._verifier_port, self._prover_port):
            port.handler = None
            port.on_give_up = None

    def _count(self, name: str, help_text: str, **labels: str) -> None:
        registry = get_registry()
        if registry.enabled:
            label_names = tuple(sorted(labels))
            registry.counter(name, help_text, labels=label_names).inc(**labels)

    def _drop_unexpected(self, side: str) -> None:
        """Count a frame that decoded but that ``side`` ignores."""
        self.unexpected_frames += 1
        self._count(
            "sacha_session_unexpected_frames_total",
            "Decoded frames the session ignored: out-of-phase, duplicate or "
            "unrequested responses, and commands the prover refused",
            side=side,
        )

    # -- verifier side -----------------------------------------------------------

    def run(self) -> NetworkRunResult:
        """Drive a full attestation and return the verdict.

        Never raises for link-level failures: after ``max_attempts``
        failed attempts the result carries an ``inconclusive`` report.
        """
        if self._phase is not _Phase.IDLE:
            raise ProtocolError("session already ran")
        self._start_ns = self._simulator.now_ns
        registry = get_registry()
        clock = lambda: self._simulator.now_ns  # noqa: E731

        attempts = 0
        failure: Optional[FailureReason] = None
        with span("net_session", clock=clock):
            while attempts < self._max_attempts:
                attempts += 1
                if attempts > 1:
                    self._count(
                        "sacha_session_retries_total",
                        "Session-level attestation re-runs after link failure",
                    )
                    _log.info(
                        "session_retry",
                        attempt=attempts,
                        max_attempts=self._max_attempts,
                    )
                # The nonce is drawn before the attempt span opens so the
                # attempt's spans, the prover's included, carry the
                # nonce-derived trace id.
                self._nonce = self._verifier.new_nonce()
                self._trace_id = trace_id_from_nonce(self._nonce)
                with trace_context(self._trace_id, "verifier"):
                    with span("session_attempt", clock=clock, attempt=attempts):
                        failure = self._run_attempt()
                if failure is None:
                    break
        self._unlink_ports()
        if registry.enabled:
            registry.counter(
                "sacha_session_attempts_total",
                "Protocol attempts started by networked sessions",
            ).inc(attempts)

        if failure is not None:
            self._phase = _Phase.FAILED
            self._end_ns = self._simulator.now_ns
            failure = FailureReason(
                stage=failure.stage,
                kind=failure.kind,
                detail=failure.detail,
                attempts=attempts,
            )
            report = AttestationReport.make_inconclusive(failure, self._nonce)
            report.config_steps = self._config_steps
        else:
            report = self._verifier.evaluate(
                self._nonce,
                self._plan,
                b"".join(self._rx_buffers),
                self._tag or b"",
            )
            report.config_steps = self._config_steps
            report.nonce = self._nonce
        self._count(
            "sacha_session_outcomes_total",
            "Networked session results, by verdict",
            verdict=report.verdict.value,
        )
        return NetworkRunResult(
            report=report,
            duration_ns=self._end_ns - self._start_ns,
            frames_sent_by_verifier=self.verifier_endpoint.frames_sent,
            frames_sent_by_prover=self.prover_endpoint.frames_sent,
            attempts=attempts,
        )

    def _run_attempt(self) -> Optional[FailureReason]:
        """One full protocol pass; None on success, the failure otherwise."""
        # Fresh per-attempt state: nonce, plan, sweep, tag, transport.
        self._link_failure = None
        self._tag = None
        self._rx_buffers = []
        self._rx_slot = 0
        self._config_acked = 0
        self._prover_configs_applied = 0
        self._config_ack_pending = False
        self._prover.abort_run()
        self._install_ports()
        self._phase = _Phase.CONFIG
        self._send_schedule()

        self._simulator.run()
        self.total_retransmissions += (
            self._verifier_port.retransmissions + self._prover_port.retransmissions
        )
        if self._link_failure is not None:
            return FailureReason(
                stage=self._phase.value,
                kind="link_down",
                detail=str(self._link_failure),
            )
        if self._phase is not _Phase.DONE:
            return FailureReason(
                stage=self._phase.value,
                kind="drained",
                detail="simulation drained before the checksum exchange; "
                "a message was lost",
            )
        if self._config_acked < self._config_steps:
            # The tag arrived but the ConfigAcks cover less than the
            # configuration.  The ARQ delivers every config batch, so an
            # ack rewritten on the wire (link CRC fixed up) gets here;
            # a MAC over a device that may be misconfigured must fail
            # toward inconclusive, not a false reject.
            return FailureReason(
                stage=_Phase.CONFIG.value,
                kind="config_unacked",
                detail=f"cumulative ConfigAcks cover {self._config_acked} of "
                f"{self._config_steps} configuration frames",
            )
        return None

    def _send_schedule(self) -> None:
        """Stream every command up front; collect responses as they arrive.

        The ARQ's in-order delivery guarantees the prover sees config →
        readbacks → checksum in order, so the whole command schedule can
        be enqueued before the first response returns — the sliding
        window keeps the pipe full.
        """
        registry = get_registry()
        config_indices, config_frames = self._verifier.config_schedule(self._nonce)
        self._config_steps = len(config_indices)
        self._plan = self._verifier.readback_plan()
        self._phase = _Phase.READBACK
        readback_batches = pack_readback_plan(self._plan, self._batch_frames)
        # One burst carries the whole command schedule: config,
        # readbacks, checksum.  The ARQ layer sees the burst's tail, so a
        # window's worth of commands costs one cumulative ACK.
        payloads = list(pack_config_commands(config_indices, config_frames))
        payloads.extend(batch.encode() for batch in readback_batches)
        payloads.append(MacChecksumCommand().encode())
        self._send_burst_to_prover(payloads)
        if registry.enabled:
            counter = registry.counter(
                "sacha_net_batch_frames_total",
                "Frames moved through batched commands, by kind",
                labels=("kind",),
            )
            counter.inc(self._config_steps, kind="config")
            counter.inc(len(self._plan), kind="readback")
            registry.histogram(
                "sacha_net_batch_size_frames",
                "Frames per batched readback command",
                buckets=(1, 4, 16, 64, 256, 1024, 4096),
            ).observe(
                float(max((len(b.frame_indices) for b in readback_batches), default=0))
            )

    def _on_verifier_delivery(self, payload: bytes) -> None:
        try:
            response = decode_response(payload)
        except NetworkError:
            # The ARQ drops frames that fail its CRC, so this is a frame
            # rewritten with a valid CRC: drop it and let the
            # drained-simulation path fail the attempt.
            self.undecodable_frames += 1
            self._count(
                "sacha_session_undecodable_frames_total",
                "Frames the session dropped because they failed to decode",
                side="verifier",
            )
            return
        if isinstance(response, ConfigAck):
            # Cumulative, like the ARQ's ACKs: the high-water mark is the
            # number of configuration frames the prover has applied.
            self._config_acked = max(self._config_acked, response.frames_applied)
            return
        if isinstance(response, ReadbackBatchResponse):
            if (
                self._phase is not _Phase.READBACK
                or response.base_slot != self._rx_slot
                or self._rx_slot + response.frame_count > len(self._plan)
                or len(response.data) != response.frame_count * self._frame_bytes
            ):
                # The plan-position cursor accepts only the next
                # contiguous fragment of whole frames, keeping the sweep
                # aligned with the plan.  Anything else is dropped, and
                # the attempt drains toward inconclusive: a misaligned
                # sweep must not be judged against an honest device.
                self._drop_unexpected("verifier")
                return
            self._rx_buffers.append(response.data)
            self._rx_slot += response.frame_count
            if self._rx_slot == len(self._plan):
                self._phase = _Phase.CHECKSUM
            return
        if isinstance(response, MacChecksumResponse):
            # The tag only counts once the sweep is complete: a tag over
            # missing data must fail towards inconclusive (drained), not
            # towards a false reject.
            if self._phase is not _Phase.CHECKSUM:
                self._drop_unexpected("verifier")
                return
            self._tag = response.tag
            self._phase = _Phase.DONE
            self._end_ns = self._simulator.now_ns
            return
        self._drop_unexpected("verifier")

    def _send_burst_to_prover(self, payloads: List[bytes]) -> None:
        if self._link_failure is not None:
            return
        try:
            self._verifier_port.send_many(payloads)
        except NetworkError as error:
            self._on_link_failure(error)

    # -- prover side ---------------------------------------------------------------

    def _scramble_after_app_config(self) -> None:
        """A configured application starts running: declare/refresh its
        storage elements once the last application frame arrives."""
        self._verifier.system.app_impl.declare_registers(
            self._prover.board.fpga.registers
        )
        self._prover.board.fpga.registers.scramble(
            self._rng.fork("net-app-activity")
        )

    def _on_prover_delivery(self, payload: bytes) -> None:
        try:
            command = decode_command(payload)
        except NetworkError:
            self.undecodable_frames += 1
            self._count(
                "sacha_session_undecodable_frames_total",
                "Frames the session dropped because they failed to decode",
                side="prover",
            )
            return
        try:
            if not get_registry().enabled:
                self._handle_prover_command(command)
                return
            # Prover-side telemetry: one span per command, opened inside
            # the attempt's session_attempt span (deliveries run in its
            # simulation) under the attempt's trace id and the device's id.
            name = _PROVER_SPAN_NAMES.get(type(command), "prover_command")
            with trace_context(self._trace_id, self._prover.device_id):
                with span(
                    name,
                    clock=lambda: self._simulator.now_ns,
                    kind=type(command).__name__,
                ):
                    self._handle_prover_command(command)
        except ReproError:
            # A command that decodes but that the prover refuses (an
            # index outside the device, a checksum before any read-back,
            # a frame of the wrong size) was rewritten on the wire: drop
            # it like any other unexpected frame.  Its answer never
            # comes, so the attempt drains toward inconclusive.
            self._drop_unexpected("prover")

    def _handle_prover_command(self, command: Command) -> None:
        if isinstance(command, IcapConfigBatchCommand):
            self._prover.handle_command(command)
            app_frames = self._verifier.system.app_impl.region_frames
            if app_frames and app_frames[-1] in command.frame_indices:
                self._scramble_after_app_config()
            self._prover_configs_applied += len(command.frame_indices)
            self._config_ack_pending = True
            return
        if self._config_ack_pending:
            # One cumulative ack per configuration phase, sent when the
            # first command after it (the first read-back batch) arrives:
            # the return path carries one ack per attempt, not one per
            # config batch.
            self._config_ack_pending = False
            self._send_config_ack()
        result = self._prover.handle_command(command)
        if result is None:
            return
        self._send_prover_result(result)

    def _send_config_ack(self) -> None:
        """Send the cumulative configuration acknowledgement."""
        if self._link_failure is not None:
            return
        self._count(
            "sacha_config_acks_total",
            "Cumulative ConfigAcks sent by provers",
        )
        try:
            self._prover_port.send(ConfigAck(self._prover_configs_applied).encode())
        except NetworkError as error:
            self._on_link_failure(error)

    def _send_prover_result(self, result: "Union[Response, List[Response]]") -> None:
        if self._link_failure is not None:
            return
        try:
            if isinstance(result, list):
                self._prover_port.send_many(response.encode() for response in result)
            else:
                self._prover_port.send(result.encode())
        except NetworkError as error:
            self._on_link_failure(error)
