"""The fleet controller: N devices, one attestation sweep.

Drives one :class:`~repro.core.net_session.NetworkAttestationSession`
per selected device, in selection order, through the sweep fan-out
(:func:`repro.core.swarm.map_sharded`), and records every outcome —
verdict, MAC tag, structured failure, duration — into the persistent
:class:`~repro.fleet.store.FleetStore` together with the sweep's
metrics snapshot.

Determinism is the same contract the swarm gives: every device's RNG is
forked from the sweep RNG by device id before the sweep, and each
device gets its own simulator/channel/session, so a device's nonce and
MAC tag depend only on (device, sweep seed).

Devices are *re-materialized* from their registry facts for every
sweep (:func:`repro.core.provisioning.materialize_device`): the store,
not a process's heap, is the source of truth about the fleet.  The key
the rebuilt board derives must equal the enrolled key byte-for-byte; a
mismatch (a corrupted key, a device that drifted) folds into an
INCONCLUSIVE outcome rather than crashing the sweep, and so does a part
or key mode the catalogue does not know.  A row the store cannot read
at all (a non-hex key, a non-integer seed) fails the sweep closed with
a :class:`~repro.errors.FleetError` before any device is attested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.net_session import NetworkAttestationSession
from repro.core.provisioning import materialize_device
from repro.core.report import AttestationReport, FailureReason, Verdict
from repro.core.swarm import map_sharded
from repro.core.verifier import SachaVerifier
from repro.errors import FleetError, ReproError
from repro.fleet.store import DeviceRecord, FleetStore
from repro.net.channel import Channel, LatencyModel
from repro.net.faults import FaultModel, FaultProfile
from repro.obs import log as obs_log
from repro.obs.exporters import registry_snapshot
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import span
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

_log = obs_log.get_logger(__name__)


@dataclass
class FleetDeviceOutcome:
    """One device's result within a sweep."""

    device_id: str
    report: AttestationReport
    tag: Optional[bytes] = None
    duration_ns: float = 0.0
    attempts: int = 1

    @property
    def verdict(self) -> Verdict:
        return self.report.verdict


@dataclass
class FleetSweepResult:
    """Everything one sweep produced, plus where it was persisted."""

    sweep_id: int
    outcomes: List[FleetDeviceOutcome] = field(default_factory=list)
    snapshot: Dict[str, dict] = field(default_factory=dict)

    def by_verdict(self, verdict: Verdict) -> List[str]:
        return [
            outcome.device_id
            for outcome in self.outcomes
            if outcome.verdict is verdict
        ]

    @property
    def accepted(self) -> List[str]:
        return self.by_verdict(Verdict.ACCEPT)

    @property
    def rejected(self) -> List[str]:
        return self.by_verdict(Verdict.REJECT)

    @property
    def inconclusive(self) -> List[str]:
        return self.by_verdict(Verdict.INCONCLUSIVE)

    @property
    def exit_code(self) -> int:
        """The single-device CLI contract, lifted to the fleet.

        The worst per-device outcome wins: 2 when any device is
        INCONCLUSIVE (the sweep must be re-run before the fleet's state
        is known), else 1 when any device is REJECTED, else 0.
        """
        if self.inconclusive:
            return 2
        if self.rejected:
            return 1
        return 0

    def explain(self) -> str:
        lines = [
            f"sweep {self.sweep_id}: {len(self.outcomes)} device(s) — "
            f"accept={len(self.accepted)} reject={len(self.rejected)} "
            f"inconclusive={len(self.inconclusive)}"
        ]
        for outcome in self.outcomes:
            detail = f"attempts={outcome.attempts}"
            if outcome.report.failure is not None:
                detail += f", {outcome.report.failure.describe()}"
            lines.append(
                f"  {outcome.device_id}: {outcome.verdict.value} ({detail})"
            )
        return "\n".join(lines)


class FleetController:
    """Runs persistent attestation sweeps over a FleetStore."""

    def __init__(
        self,
        store: FleetStore,
        fault_profile: Optional[FaultProfile] = None,
        profile_text: str = "",
        max_attempts: int = 3,
        channel_base_latency_ns: float = 5_000.0,
    ) -> None:
        if max_attempts < 1:
            raise FleetError(
                f"fleet sweeps need at least one attempt, got {max_attempts}"
            )
        self._store = store
        self._profile = fault_profile
        self._profile_text = profile_text
        self._max_attempts = max_attempts
        self._latency_ns = channel_base_latency_ns

    # -- one device ----------------------------------------------------------------

    def _attest_device(
        self, device: DeviceRecord, rng: DeterministicRng
    ) -> FleetDeviceOutcome:
        """Re-materialize and attest one device; failures fold inward."""
        try:
            return self._attest_device_inner(device, rng)
        except ReproError as exc:
            _log.warning(
                "fleet_device_failed", device_id=device.device_id, error=str(exc)
            )
            return FleetDeviceOutcome(
                device_id=device.device_id,
                report=AttestationReport.make_inconclusive(
                    FailureReason(
                        stage="fleet", kind=type(exc).__name__, detail=str(exc)
                    )
                ),
            )

    def _attest_device_inner(
        self, device: DeviceRecord, rng: DeterministicRng
    ) -> FleetDeviceOutcome:
        provisioned, record = materialize_device(
            device.part,
            device.device_id,
            seed=device.seed,
            key_mode=device.key_mode,
        )
        if not record.mac_key.compare_digest(device.key):
            return FleetDeviceOutcome(
                device_id=device.device_id,
                report=AttestationReport.make_inconclusive(
                    FailureReason(
                        stage="fleet",
                        kind="key_mismatch",
                        detail="re-derived device key does not match the "
                        "enrolled key material",
                    )
                ),
            )
        if device.tampered:
            # The registry models a compromised device: flip one unmasked
            # static bit after boot, exactly like the single-device CLI.
            bit = provisioned.system.first_unmasked_static_bit()
            provisioned.board.fpga.memory.flip_bit(
                bit.frame_index, bit.word_index, bit.bit_index
            )
        simulator = Simulator()
        fault_model = (
            FaultModel(self._profile, rng.fork("faults"))
            if self._profile is not None and self._profile.is_active
            else None
        )
        channel = Channel(
            simulator,
            LatencyModel(base_ns=self._latency_ns),
            fault_model=fault_model,
        )
        verifier = SachaVerifier(
            record.system, record.mac_key, rng.fork("verifier")
        )
        session = NetworkAttestationSession(
            simulator,
            channel,
            provisioned.prover,
            verifier,
            rng.fork("session"),
            max_attempts=self._max_attempts,
        )
        result = session.run()
        return FleetDeviceOutcome(
            device_id=device.device_id,
            report=result.report,
            tag=session.tag,
            duration_ns=result.duration_ns,
            attempts=result.attempts,
        )

    # -- the sweep -----------------------------------------------------------------

    def attest(
        self,
        seed: int,
        limit: Optional[int] = None,
        workers: int = 1,
        devices: Optional[List[DeviceRecord]] = None,
    ) -> FleetSweepResult:
        """One persistent sweep: select, attest, record, snapshot.

        ``devices`` overrides the store's priority selection (tests and
        targeted re-attestation); otherwise
        :meth:`FleetStore.select_for_attestation` picks up to ``limit``
        devices, previously-inconclusive and stale ones first.

        ``workers`` is accepted and ignored: every sweep runs its
        devices one after another (the end-to-end benchmark still
        passes it).
        """
        selected = (
            devices
            if devices is not None
            else self._store.select_for_attestation(limit)
        )
        if not selected:
            raise FleetError("no devices selected; enroll a fleet first")
        sweep_id = self._store.begin_sweep(
            seed, self._profile_text, len(selected)
        )
        sweep_registry = MetricsRegistry(enabled=True)
        rng = DeterministicRng(seed)
        # Per-device RNGs: verdicts, nonces and tags depend only on
        # (device, sweep seed).
        device_rngs = [rng.fork(device.device_id) for device in selected]
        with use_registry(sweep_registry):
            queue_depth = sweep_registry.gauge(
                "sacha_fleet_queue_depth",
                "Devices awaiting attestation in the current sweep",
            )
            queue_depth.set(float(len(selected)))
            with span("fleet_sweep", sweep_id=sweep_id, devices=len(selected)):
                outcomes = map_sharded(
                    lambda index: self._attest_device(
                        selected[index], device_rngs[index]
                    ),
                    len(selected),
                )
            verdicts = sweep_registry.counter(
                "sacha_fleet_attestations_total",
                "Fleet sweep attestation outcomes, by verdict",
                labels=("verdict",),
            )
            result = FleetSweepResult(sweep_id=sweep_id)
            for position, outcome in enumerate(outcomes):
                self._store.record_attestation(
                    sweep_id,
                    outcome.device_id,
                    outcome.report,
                    tag=outcome.tag,
                    duration_ns=outcome.duration_ns,
                    attempts=outcome.attempts,
                )
                verdicts.inc(verdict=outcome.verdict.value)
                queue_depth.set(float(len(selected) - position - 1))
                result.outcomes.append(outcome)
            sweep_registry.counter(
                "sacha_fleet_sweeps_total", "Completed fleet sweeps"
            ).inc()
        result.snapshot = registry_snapshot(sweep_registry)
        self._store.finish_sweep(sweep_id, result.snapshot)
        _log.info(
            "fleet_sweep_completed",
            sweep_id=sweep_id,
            devices=len(selected),
            accept=len(result.accepted),
            reject=len(result.rejected),
            inconclusive=len(result.inconclusive),
        )
        return result
