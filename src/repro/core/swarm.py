"""Swarm attestation: a fleet of SACHa provers under one verifier.

Section 4.2 notes that hybrid schemes aim at large-scale "swarm"
attestation of device fleets.  SACHa composes naturally: each board
attests independently, so a sweep is one run per member, in member
order.  The report models both one verifier sweeping the fleet and
per-device verifiers running side by side (sim-clock time), aggregates
verdicts, and localizes compromised devices down to their mismatching
frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.core.protocol import SessionOptions, run_attestation
from repro.core.prover import SachaProver
from repro.core.report import AttestationReport, FailureReason, Verdict
from repro.core.verifier import SachaVerifier
from repro.errors import ProtocolError, ReproError
from repro.obs import log as obs_log
# benchmarks/e2e/tracer.py patches this name; nothing here calls it.
from repro.obs.aggregate import merge_registries  # noqa: F401
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.utils.rng import DeterministicRng

_log = obs_log.get_logger(__name__)

_T = TypeVar("_T")


def map_sharded(fn: Callable[[int], _T], count: int) -> List[_T]:
    """``[fn(0), ..., fn(count - 1)]``: the one fan-out of every sweep.

    Swarm and fleet sweeps run their members through here, one after
    the other in index order, on the calling thread and under the
    active metrics registry.  Callers needing per-call randomness fork
    one RNG per index before the call, so results depend only on the
    index, never on the order the calls run in.
    """
    return [fn(index) for index in range(count)]


@dataclass
class SwarmMember:
    """One enrolled device of the fleet."""

    device_id: str
    prover: SachaProver
    verifier: SachaVerifier


@dataclass
class SwarmReport:
    """Aggregate verdict over the fleet."""

    results: Dict[str, AttestationReport] = field(default_factory=dict)
    sequential_ns: float = 0.0
    parallel_ns: float = 0.0

    @property
    def healthy(self) -> List[str]:
        return sorted(
            device_id
            for device_id, report in self.results.items()
            if report.verdict is Verdict.ACCEPT
        )

    @property
    def compromised(self) -> List[str]:
        return sorted(
            device_id
            for device_id, report in self.results.items()
            if report.verdict is Verdict.REJECT
        )

    @property
    def inconclusive(self) -> List[str]:
        """Members whose run failed (link down, crash) — no verdict."""
        return sorted(
            device_id
            for device_id, report in self.results.items()
            if report.verdict is Verdict.INCONCLUSIVE
        )

    @property
    def all_healthy(self) -> bool:
        return not self.compromised and not self.inconclusive

    def localize(self) -> Dict[str, List[int]]:
        """Mismatching frames per compromised device."""
        return {
            device_id: self.results[device_id].mismatched_frames
            for device_id in self.compromised
        }

    def explain(self) -> str:
        lines = [
            f"swarm of {len(self.results)}: {len(self.healthy)} healthy, "
            f"{len(self.compromised)} compromised, "
            f"{len(self.inconclusive)} inconclusive"
        ]
        for device_id in self.compromised:
            frames = self.results[device_id].mismatched_frames
            reason = (
                f"frames {frames[:5]}" if frames else "MAC invalid"
            )
            lines.append(f"  - {device_id}: {reason}")
        for device_id in self.inconclusive:
            report = self.results[device_id]
            reason = (
                report.failure.describe()
                if report.failure
                else report.failure_reason or "run did not complete"
            )
            lines.append(f"  - {device_id}: inconclusive ({reason})")
        lines.append(
            f"sweep time: {self.sequential_ns / 1e9:.3f} s sequential, "
            f"{self.parallel_ns / 1e9:.3f} s parallel"
        )
        return "\n".join(lines)


class SwarmAttestation:
    """Drives one attestation sweep over a fleet."""

    def __init__(self, members: List[SwarmMember]) -> None:
        if not members:
            raise ProtocolError("a swarm needs at least one member")
        seen = set()
        for member in members:
            if member.device_id in seen:
                raise ProtocolError(
                    f"duplicate device id {member.device_id!r} in swarm"
                )
            seen.add(member.device_id)
        self._members = list(members)

    def __len__(self) -> int:
        return len(self._members)

    def _attest_member(
        self,
        member: SwarmMember,
        member_rng: DeterministicRng,
        options: SessionOptions,
    ) -> AttestationReport:
        """One member's run, with failures folded into the report."""
        try:
            return run_attestation(
                member.prover, member.verifier, member_rng, options
            ).report
        except ReproError as exc:
            # A half-finished run leaves incremental MAC state in the
            # prover; reset it so the failure cannot bleed into the next
            # member or sweep.
            member.prover.abort_run()
            _log.warning(
                "swarm_member_failed",
                device_id=member.device_id,
                error=str(exc),
            )
            return AttestationReport.make_inconclusive(
                FailureReason(
                    stage="member",
                    kind=type(exc).__name__,
                    detail=str(exc),
                )
            )

    def run(
        self,
        rng: DeterministicRng,
        options: Optional[SessionOptions] = None,
        on_result: Optional[Callable[[str, AttestationReport], None]] = None,
    ) -> SwarmReport:
        """Attest every member; independent nonces and readback orders.

        ``sequential_ns`` models one verifier sweeping the fleet member
        by member; ``parallel_ns`` models per-device verifiers running
        concurrently (the slowest member bounds the sweep).  Both are
        sim-clock models; the host runs the members one after another.

        Each member's RNG is forked from its device id before the sweep,
        so a member's nonce and report depend only on (rng, device id).
        Results and ``on_result`` callbacks arrive in member order.

        A member whose run raises (dead link, crashing prover) is
        recorded with an ``inconclusive`` report; the sweep always
        completes and the report covers every member.
        """
        options = options if options is not None else SessionOptions()
        report = SwarmReport()
        registry = get_registry()
        durations: List[float] = []
        sweep_clock = lambda: sum(durations)  # noqa: E731 — sequential sweep time
        member_rngs = [rng.fork(member.device_id) for member in self._members]
        def record(member: SwarmMember, member_report: AttestationReport) -> None:
            report.results[member.device_id] = member_report
            durations.append(
                member_report.timing.total_ns if member_report.timing else 0.0
            )
            if registry.enabled:
                registry.counter(
                    "sacha_swarm_member_verdicts_total",
                    "Per-member attestation outcomes across sweeps",
                    labels=("device_id", "verdict"),
                ).inc(
                    device_id=member.device_id,
                    verdict=member_report.verdict.value,
                )
            if on_result is not None:
                on_result(member.device_id, member_report)

        with span("swarm_sweep", clock=sweep_clock, members=len(self._members)):
            member_reports = map_sharded(
                lambda index: self._attest_member(
                    self._members[index], member_rngs[index], options
                ),
                len(self._members),
            )
            for member, member_report in zip(self._members, member_reports):
                record(member, member_report)
        report.sequential_ns = sum(durations)
        report.parallel_ns = max(durations) if durations else 0.0
        if registry.enabled:
            registry.counter(
                "sacha_swarm_sweeps_total", "Completed fleet attestation sweeps"
            ).inc()
            members = registry.counter(
                "sacha_swarm_members_total",
                "Fleet members attested across sweeps, by verdict",
                labels=("verdict",),
            )
            if report.healthy:
                members.inc(len(report.healthy), verdict="accept")
            if report.compromised:
                members.inc(len(report.compromised), verdict="reject")
            if report.inconclusive:
                members.inc(len(report.inconclusive), verdict="inconclusive")
            sweep_gauge = registry.gauge(
                "sacha_swarm_sweep_duration_seconds",
                "Duration of the last fleet sweep, by strategy",
                labels=("strategy",),
            )
            sweep_gauge.set(report.sequential_ns / 1e9, strategy="sequential")
            sweep_gauge.set(report.parallel_ns / 1e9, strategy="parallel")
            _log.info(
                "swarm_sweep_completed",
                members=len(self._members),
                healthy=len(report.healthy),
                compromised=len(report.compromised),
                inconclusive=len(report.inconclusive),
                sequential_ns=report.sequential_ns,
            )
        return report


def build_swarm(
    make_member: Callable[[int], Tuple[str, SachaProver, SachaVerifier]],
    count: int,
) -> SwarmAttestation:
    """Construct a swarm from a member factory (index → member parts)."""
    if count <= 0:
        raise ProtocolError(f"swarm size must be positive, got {count}")
    members = []
    for index in range(count):
        device_id, prover, verifier = make_member(index)
        members.append(
            SwarmMember(device_id=device_id, prover=prover, verifier=verifier)
        )
    return SwarmAttestation(members)
