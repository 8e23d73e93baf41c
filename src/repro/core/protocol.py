"""The SACHa attestation protocol (Figures 8 and 9).

:func:`run_attestation` drives one complete run between a prover and a
verifier: the two-step dynamic configuration (application, then nonce),
the full-configuration readback in the verifier's order with incremental
MAC computation, the final checksum exchange, and the verifier's two
comparisons.  Timing is accumulated from the Table-3 action model plus a
network model, so a run on the XC6VLX240T reports the paper's 1.443 s /
28.5 s durations while moving every real byte through the real MAC.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ProtocolError
from repro.core.prover import SachaProver
from repro.core.report import AttestationReport, TimingBreakdown
from repro.core.verifier import SachaVerifier
from repro.obs import log as obs_log
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.net.messages import (
    IcapReadbackCommand,
    MacChecksumCommand,
    MacChecksumResponse,
    MaskedReadbackAck,
    ReadbackResponse,
)
from repro.sim.tracing import TraceRecorder
from repro.timing.model import ActionCounts, ActionTimingModel, ProtocolAction
from repro.timing.network import IDEAL_NETWORK, NetworkModel
from repro.utils.rng import DeterministicRng

_log = obs_log.get_logger(__name__)

#: Stands in for a per-frame span when frame spans are off: one shared,
#: reusable no-op context instead of one object per frame.
_NO_SPAN = contextlib.nullcontext()


@dataclass
class SessionOptions:
    """Knobs of one protocol run."""

    network: NetworkModel = IDEAL_NETWORK
    record_trace: bool = False
    #: Simulate the application (and static logic) running between the
    #: configuration and readback phases: live registers take arbitrary
    #: values, which the mask must absorb.
    scramble_registers: bool = True
    #: Section-6.1 alternative: send the Msk to the prover with each
    #: readback; the prover masks before MACing and returns no frame
    #: content.  Similar communication latency, no tamper localization.
    mask_at_prover: bool = False
    #: Emit one observability span per readback step (28k+ spans on a
    #: full XC6VLX240T run — phase spans alone are the default).  Only
    #: takes effect while the active metrics registry is enabled.
    span_frames: bool = False


@dataclass
class SessionResult:
    """The run's artifacts beyond the report (for attacks and tests)."""

    report: AttestationReport
    nonce: bytes = b""
    plan: List[int] = field(default_factory=list)
    #: The read-back frames in plan order, concatenated; empty in the
    #: mask-at-prover variant, which returns no frame content.
    sweep: bytes = b""
    tag: bytes = b""


def run_attestation(
    prover: SachaProver,
    verifier: SachaVerifier,
    rng: Optional[DeterministicRng] = None,
    options: Optional[SessionOptions] = None,
) -> SessionResult:
    """Execute one full SACHa attestation."""
    rng = rng or DeterministicRng(0)
    options = options if options is not None else SessionOptions()
    tracing = options.record_trace
    trace = TraceRecorder(enabled=tracing)
    model = ActionTimingModel(verifier.system.device)
    device = verifier.system.device
    # Table-3 durations, resolved once per run.  Each step still adds
    # them to the sim clock one action at a time, in protocol order, so
    # the accumulated float is the same as summing action by action.
    durations = model.all_actions_ns()
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 = (
        durations[action] for action in ProtocolAction
    )
    masked_send_ns = model.masked_readback_send_ns()
    masked_ack_ns = model.masked_ack_ns()
    elapsed = 0.0

    registry = get_registry()
    obs_on = registry.enabled
    clock = lambda: elapsed  # noqa: E731 — spans read the sim clock live
    if obs_on:
        attestations = registry.counter(
            "sacha_attestations_total",
            "Completed attestation runs by verdict",
            labels=("result",),
        )
        frames_configured = registry.counter(
            "sacha_frames_configured_total",
            "Frames written during dynamic configuration phases",
        )
        frames_readback = registry.counter(
            "sacha_frames_readback_total",
            "Configuration frames read back from provers",
        )
        mac_updates = registry.counter(
            "sacha_mac_updates_total",
            "Incremental MAC update steps performed by provers",
        )
        phase_seconds = registry.histogram(
            "sacha_phase_duration_seconds",
            "Simulated duration of each protocol phase",
            labels=("phase",),
        )
        run_seconds = registry.histogram(
            "sacha_attestation_duration_seconds",
            "Simulated end-to-end duration of one attestation run",
        )
    frame_spans = obs_on and options.span_frames
    handle_command = prover.handle_command

    with span(
        "attestation", clock=clock, registry=registry, device=device.name
    ) as root:
        # -- dynamic configuration phase (Figure 9, top) ---------------------
        nonce = verifier.new_nonce()
        with span("config", clock=clock, registry=registry):
            config_commands = verifier.config_commands(nonce)
            config_ns = 0.0
            for command in config_commands:
                start = elapsed
                elapsed += a1
                handle_command(command)
                elapsed += a2
                config_ns += elapsed - start
                if tracing:
                    trace.record(
                        start, "ICAP_config", "vrf->prv", f"frame {command.frame_index}"
                    )

        # The dynamic partition now runs the configured application: its
        # storage elements start flip-flopping once its frames are in.
        registers = prover.board.fpga.registers
        verifier.system.app_impl.declare_registers(registers)
        if options.scramble_registers:
            registers.scramble(rng.fork("app-activity"))

        # -- full configuration readback (Figure 9, middle) -------------------
        plan = verifier.readback_plan()
        frames: List[bytes] = []
        readback_ns = 0.0
        first = True
        with span("readback", clock=clock, registry=registry, frames=len(plan)):
            if options.mask_at_prover:
                for command in verifier.masked_readback_commands(plan):
                    start = elapsed
                    elapsed += masked_send_ns
                    if first:
                        elapsed += a5
                        trace.record(elapsed, "MAC_init", "prv")
                        first = False
                    with (
                        span(
                            "readback",
                            clock=clock,
                            registry=registry,
                            frame=command.frame_index,
                        )
                        if frame_spans
                        else _NO_SPAN
                    ):
                        ack = handle_command(command)
                        if not isinstance(ack, MaskedReadbackAck):
                            raise ProtocolError(
                                f"prover returned {type(ack).__name__} to "
                                "masked readback"
                            )
                        elapsed += a4
                        elapsed += a6
                        elapsed += masked_ack_ns
                    readback_ns += elapsed - start
                    if tracing:
                        trace.record(
                            start,
                            "ICAP_readback_masked",
                            "vrf->prv",
                            f"frame {command.frame_index}",
                        )
            else:
                for frame_index in plan:
                    start = elapsed
                    elapsed += a3
                    if first:
                        elapsed += a5
                        trace.record(elapsed, "MAC_init", "prv")
                        first = False
                    with (
                        span(
                            "readback",
                            clock=clock,
                            registry=registry,
                            frame=frame_index,
                        )
                        if frame_spans
                        else _NO_SPAN
                    ):
                        response = handle_command(IcapReadbackCommand(frame_index))
                        if not isinstance(response, ReadbackResponse):
                            raise ProtocolError(
                                f"prover returned {type(response).__name__} "
                                "to ICAP_readback"
                            )
                        if response.frame_index != frame_index:
                            raise ProtocolError(
                                f"prover answered frame {response.frame_index} "
                                f"when frame {frame_index} was requested"
                            )
                        elapsed += a4
                        elapsed += a6
                        elapsed += a8
                    readback_ns += elapsed - start
                    frames.append(response.data)
                    if tracing:
                        trace.record(
                            start, "ICAP_readback", "vrf->prv", f"frame {frame_index}"
                        )

        # -- checksum exchange (Figure 9, bottom) ------------------------------
        with span("checksum", clock=clock, registry=registry):
            start = elapsed
            elapsed += a9
            checksum_response = handle_command(MacChecksumCommand())
            if not isinstance(checksum_response, MacChecksumResponse):
                raise ProtocolError(
                    f"prover returned {type(checksum_response).__name__} to "
                    "MAC_checksum"
                )
            elapsed += a7
            elapsed += a10
            checksum_ns = elapsed - start
            trace.record(start, "MAC_checksum", "vrf->prv")
            trace.record(elapsed, "MAC_response", "prv->vrf")

        # -- verdict ----------------------------------------------------------
        counts = ActionCounts(
            config_steps=len(config_commands),
            readback_steps=len(plan),
        )
        network_ns = options.network.overhead_ns(counts)
        sweep = b"".join(frames)
        if options.mask_at_prover:
            report = verifier.evaluate_masked(nonce, plan, checksum_response.tag)
        else:
            report = verifier.evaluate(nonce, plan, sweep, checksum_response.tag)
        report.config_steps = len(config_commands)
        report.nonce = nonce
        report.timing = TimingBreakdown(
            config_ns=config_ns,
            readback_ns=readback_ns,
            checksum_ns=checksum_ns,
            network_overhead_ns=network_ns,
        )
        report.trace = trace if options.record_trace else None
        if root is not None:
            root.set_attribute("result", "accept" if report.accepted else "reject")
            root.set_attribute("frames", len(plan))

    if obs_on:
        result_label = "accept" if report.accepted else "reject"
        attestations.inc(result=result_label)
        frames_configured.inc(len(config_commands))
        frames_readback.inc(len(plan))
        mac_updates.inc(len(plan))
        phase_seconds.observe(config_ns / 1e9, phase="config")
        phase_seconds.observe(readback_ns / 1e9, phase="readback")
        phase_seconds.observe(checksum_ns / 1e9, phase="checksum")
        run_seconds.observe(report.timing.total_ns / 1e9)
        _log.info(
            "attestation_completed",
            device=device.name,
            result=result_label,
            frames=len(plan),
            mismatched=len(report.mismatched_frames),
            total_ns=report.timing.total_ns,
        )
    return SessionResult(
        report=report,
        nonce=nonce,
        plan=plan,
        sweep=sweep,
        tag=checksum_response.tag,
    )


def attest(
    prover: SachaProver,
    verifier: SachaVerifier,
    rng: Optional[DeterministicRng] = None,
    options: Optional[SessionOptions] = None,
) -> AttestationReport:
    """Convenience wrapper returning just the report."""
    return run_attestation(prover, verifier, rng, options).report
