"""The four end-to-end workloads: inputs from the seed, one op, expected verdicts.

Every input a workload feeds the program -- device seeds, the RNG fork
of each op, which device is tampered and which bit -- is drawn from the
workload's own fork of ``--seed``, so one seed always yields the same
ops.  An op returns one :class:`Outcome` per verdict it produced, with
``error`` set when the verdict (or the tampered frame it localizes)
differs from what the inputs demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro.core.protocol as protocol
import repro.core.provisioning as provisioning
from repro.cache import get_artifact_cache
from repro.core.net_session import NetworkAttestationSession
from repro.core.report import AttestationReport, Verdict
from repro.core.verifier import SachaVerifier
from repro.fleet.controller import FleetController
from repro.fleet.store import DeviceRecord, FleetStore
from repro.fpga.registers import RegisterBit
from repro.net.channel import Channel, LatencyModel
from repro.net.faults import FaultModel, FaultProfile
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

#: Switch plus host stack, one way: the fleet controller's default link.
LINK = LatencyModel(base_ns=5_000.0)
LOSSY = FaultProfile(loss_probability=0.05)
SEED_RANGE = (0, 2**31 - 1)


@dataclass(frozen=True)
class Outcome:
    """One verdict of one op."""

    label: str
    verdict: str
    tag: str
    sim_ns: float
    error: str = ""


def _outcome(
    label: str,
    report: AttestationReport,
    tag: Optional[bytes],
    sim_ns: float,
    tampered_frame: Optional[int] = None,
) -> Outcome:
    """Check a verdict: ACCEPT when clean, REJECT at the tampered frame."""
    verdict = report.verdict
    error = ""
    if tampered_frame is None:
        if verdict is not Verdict.ACCEPT:
            error = f"expected accept, got {verdict.value}"
    elif verdict is not Verdict.REJECT:
        error = f"expected reject, got {verdict.value}"
    elif list(report.mismatched_frames) != [tampered_frame]:
        error = (
            f"reject localized {list(report.mismatched_frames)[:4]}, "
            f"expected [{tampered_frame}]"
        )
    if not error and not tag:
        error = "no MAC tag"
    return Outcome(label, verdict.value, tag.hex() if tag else "", sim_ns, error)


def flip_unmasked_static_bit(
    device: provisioning.ProvisionedDevice, rng: DeterministicRng
) -> int:
    """Tamper with one static bit the mask does not hide; returns its frame.

    A masked bit (a storage element's) is excluded from the comparison
    by design, so flipping one must give ACCEPT -- on SIM-MEDIUM, bit
    (frame 0, word 0, bit 0) is such a bit.
    """
    system = device.system
    mask = system.combined_mask()
    frames = system.partition.static_frame_list()
    words = system.device.words_per_frame
    while True:
        bit = RegisterBit(
            rng.choice(frames), rng.randint(0, words - 1), rng.randint(0, 31)
        )
        if not mask.is_masked(bit):
            break
    device.board.fpga.memory.flip_bit(bit.frame_index, bit.word_index, bit.bit_index)
    return bit.frame_index


class Workload:
    """One workload: ``setup()`` once, then ``op(k)`` for k = 0, 1, ..."""

    name = ""
    #: The percentile reported as ``op_tail_ms``.
    tail_percentile = 50
    #: The ops (from op 0) whose verdicts and tags the default-seed pin covers.
    pin_ops = 1
    #: Fan-out threads, for ``swarm.parallel_efficiency``.
    workers = 1

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.rng = DeterministicRng(seed).fork(self.name)
        self.smoke = smoke
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, k: int) -> List[Outcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up opened."""

    def _op_rng(self, k: int) -> DeterministicRng:
        return self.rng.fork(f"op-{k}")


class _FullDevice(Workload):
    """One provisioned XC6VLX240T board, attested again by every op."""

    tail_percentile = 75
    pin_ops = 3

    def setup(self) -> None:
        system = get_artifact_cache().get_system("XC6VLX240T")
        seed = self.rng.fork("device").randint(*SEED_RANGE)
        self.device, self.record = provisioning.provision_device(
            system, "fulldev-0", seed=seed
        )

    def _verifier(self, rng: DeterministicRng) -> SachaVerifier:
        return SachaVerifier(
            self.record.system, self.record.mac_key, rng.fork("verifier")
        )


class FullDeviceNet(_FullDevice):
    """The paper's device through the simulated network and ARQ stack."""

    name = "fulldev-net"

    def op(self, k: int) -> List[Outcome]:
        rng = self._op_rng(k)
        simulator = Simulator()
        session = NetworkAttestationSession(
            simulator,
            Channel(simulator, LINK),
            self.device.prover,
            self._verifier(rng),
            rng.fork("session"),
            reliable=True,
        )
        result = session.run()
        return [_outcome("fulldev-0", result.report, session.tag, result.duration_ns)]


class FullDevicePaper(_FullDevice):
    """The paper's per-frame protocol in memory: no network, no simulator."""

    name = "fulldev-paper"

    def op(self, k: int) -> List[Outcome]:
        rng = self._op_rng(k)
        result = protocol.run_attestation(
            self.device.prover,
            self._verifier(rng),
            rng.fork("session"),
            protocol.SessionOptions(),
        )
        report = result.report
        return [_outcome("fulldev-0", report, result.tag, report.timing.total_ns)]


class FleetSweep(Workload):
    """Sharded sweeps over a SQLite registry of small devices."""

    name = "fleet-sweep"
    tail_percentile = 90
    pin_ops = 4
    workers = 2
    DEVICES = 16
    SMOKE_DEVICES = 8

    def setup(self) -> None:
        self.path = os.path.join(self.workdir, f"{self.name}.db")
        for suffix in ("", "-journal"):
            if os.path.exists(self.path + suffix):
                os.remove(self.path + suffix)
        self.store = FleetStore(self.path)
        seeds = self.rng.fork("devices")
        # Every fourth device is SIM-MEDIUM, so two parts share the memo.
        # The controller tampers with static bit (frame 0, word 0, bit 0),
        # which SIM-MEDIUM masks, so only SIM-SMALL devices are tampered:
        # residues 3 and 7 (mod 8) are the SIM-MEDIUM ones.
        residue = self.rng.fork("tamper").choice((0, 1, 2, 4, 5, 6))
        self.expected: Dict[str, Optional[int]] = {}
        count = self.SMOKE_DEVICES if self.smoke else self.DEVICES
        for index in range(count):
            part = "SIM-MEDIUM" if index % 4 == 3 else "SIM-SMALL"
            device_id = f"fleet-{index:03d}"
            seed = seeds.randint(*SEED_RANGE)
            device, record = provisioning.materialize_device(
                part, device_id, seed=seed
            )
            tampered = index % 8 == residue
            self.store.enroll(
                DeviceRecord(
                    device_id=device_id,
                    part=part,
                    seed=seed,
                    key_mode=provisioning.KEY_MODE_PUF,
                    key=record.mac_key,
                    tampered=tampered,
                )
            )
            frame = device.system.partition.static_frame_list()[0]
            if tampered and device.system.combined_mask().is_masked(
                RegisterBit(frame, 0, 0)
            ):
                raise RuntimeError(f"{part} masks the bit the controller tampers")
            self.expected[device_id] = frame if tampered else None
        self.controller = FleetController(self.store)

    def op(self, k: int) -> List[Outcome]:
        sweep = self.controller.attest(
            seed=self._op_rng(k).randint(*SEED_RANGE), workers=self.workers
        )
        return [
            _outcome(
                outcome.device_id,
                outcome.report,
                outcome.tag,
                outcome.duration_ns,
                self.expected[outcome.device_id],
            )
            for outcome in sweep.outcomes
        ]

    def close(self) -> None:
        self.store.close()
        os.remove(self.path)


class LossyNet(Workload):
    """SIM-MEDIUM sessions over a 5 % loss link: the ARQ recovery path."""

    name = "lossy-net"
    tail_percentile = 99
    pin_ops = 64
    BOARDS = 8

    def setup(self) -> None:
        system = get_artifact_cache().get_system("SIM-MEDIUM")
        seeds = self.rng.fork("devices")
        self.boards: List[
            Tuple[provisioning.ProvisionedDevice, provisioning.VerifierRecord]
        ] = [
            provisioning.provision_device(
                system, f"lossy-{index}", seed=seeds.randint(*SEED_RANGE)
            )
            for index in range(self.BOARDS)
        ]
        tamper = self.rng.fork("tamper")
        self.tampered = tamper.randint(0, self.BOARDS - 1)
        self.tampered_frame = flip_unmasked_static_bit(
            self.boards[self.tampered][0], tamper
        )

    def op(self, k: int) -> List[Outcome]:
        rng = self._op_rng(k)
        index = k % self.BOARDS
        device, record = self.boards[index]
        simulator = Simulator()
        session = NetworkAttestationSession(
            simulator,
            Channel(simulator, LINK, fault_model=FaultModel(LOSSY, rng.fork("faults"))),
            device.prover,
            SachaVerifier(record.system, record.mac_key, rng.fork("verifier")),
            rng.fork("session"),
            reliable=True,
            max_attempts=3,
        )
        result = session.run()
        return [
            _outcome(
                device.device_id,
                result.report,
                session.tag,
                result.duration_ns,
                self.tampered_frame if index == self.tampered else None,
            )
        ]


WORKLOADS = {
    workload.name: workload
    for workload in (FullDeviceNet, FullDevicePaper, FleetSweep, LossyNet)
}
