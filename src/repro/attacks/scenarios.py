"""The security-evaluation scenarios of Section 7.2.

Five threats, each mounted for real against a provisioned device:

1. malicious hardware module in the **DynPart**;
2. malicious hardware module in the **StatPart**;
3. **impersonation** of the prover (clone without the key);
4. an external **proxy** device computing the MAC (pin tampering);
5. **replay** of a previous attestation (incl. nonce suppression).

Plus the bounded-memory hoarding attack that underpins scenario 1.
Every scenario returns an :class:`AttackOutcome`; the security benchmark
(E5) tabulates them.
"""

from __future__ import annotations

from typing import List

from repro.attacks.base import AttackOutcome
from repro.attacks.provers import HoardingProver, SkippingProver, WrongKeyProver
from repro.core.prover import RegisterKey, SachaProver
from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import ProvisionedDevice, VerifierRecord
from repro.core.verifier import SachaVerifier
from repro.design.cores import MALICIOUS_TAP
from repro.design.netlist import design_from_cores
from repro.design.placer import place
from repro.errors import PlacementError
from repro.fpga.bram import BramInventory
from repro.fpga.fabric import Fabric
from repro.utils.rng import DeterministicRng


def _fresh_verifier(record: VerifierRecord, seed: int) -> SachaVerifier:
    return SachaVerifier(record.system, record.mac_key, DeterministicRng(seed))


def dynpart_malware_attack(
    provisioned: ProvisionedDevice,
    record: VerifierRecord,
    seed: int = 1001,
    resist_overwrite: bool = False,
) -> AttackOutcome:
    """Scenario 1: a malicious module in the dynamic partition.

    The adversary writes malicious configuration into DynMem frames.  If
    it lets the protocol run (``resist_overwrite=False``), the verifier's
    configuration phase *overwrites* the malware — the attack is
    neutralized by construction and attestation passes on a now-clean
    device.  If the malware resists being overwritten (a skipping
    prover), the stale frames show up in the readback and the run is
    rejected.
    """
    system = record.system
    rng = DeterministicRng(seed)
    target_frames = system.partition.application_frame_list()[:3]
    for frame_index in target_frames:
        provisioned.board.fpga.memory.write_frame(
            frame_index, rng.randbytes(system.device.frame_bytes)
        )

    if resist_overwrite:
        prover: SachaProver = SkippingProver(
            provisioned.board,
            provisioned.key_provider,
            protected_frames=target_frames,
        )
    else:
        prover = provisioned.prover

    result = run_attestation(prover, _fresh_verifier(record, seed + 1), rng)
    if resist_overwrite:
        detected = not result.report.accepted
        notes = (
            f"malware kept {len(target_frames)} frames; verifier flagged "
            f"{len(result.report.mismatched_frames)} mismatching frame(s)"
        )
    else:
        clean = result.report.accepted
        detected = clean  # neutralized: the malware no longer exists
        notes = (
            "malware was overwritten by the configuration phase; "
            "attestation passed on the clean device"
            if clean
            else "unexpected rejection of the overwritten device"
        )
    return AttackOutcome(
        attack_name=(
            "DynPart malware (resisting overwrite)"
            if resist_overwrite
            else "DynPart malware (overwritten)"
        ),
        adversary_class="remote",
        mounted=True,
        detected=detected,
        notes=notes,
    )


def statpart_insertion_attack(
    provisioned: ProvisionedDevice, record: VerifierRecord, seed: int = 2001
) -> AttackOutcome:
    """Scenario 2a: add a malicious module to the StatPart.

    The static region is sized to exactly fit the static design; there is
    no spare capacity for additional logic, so the insertion fails at
    implementation time.
    """
    system = record.system
    malicious_design = design_from_cores(
        "static_plus_malware",
        [instance.core for instance in system.static_impl.design] + [MALICIOUS_TAP],
    )
    try:
        place(malicious_design, system.device, system.partition.static_frame_list())
    except PlacementError as error:
        return AttackOutcome(
            attack_name="StatPart malware insertion",
            adversary_class="local",
            mounted=False,
            detected=True,
            notes=f"no room in the static region: {error}",
        )
    return AttackOutcome(
        attack_name="StatPart malware insertion",
        adversary_class="local",
        mounted=True,
        detected=False,
        notes="malicious module fit into the static region (unexpected)",
    )


def statpart_substitution_attack(
    provisioned: ProvisionedDevice, record: VerifierRecord, seed: int = 2101
) -> AttackOutcome:
    """Scenario 2b: replace static-partition configuration in place.

    Even without adding logic, rewriting StatMem content (e.g. trojaning
    the MAC core) changes frames the protocol never re-writes — and the
    full-memory readback covers StatMem too, so the golden comparison
    catches it.
    """
    system = record.system
    rng = DeterministicRng(seed)
    static_frames = system.partition.static_frame_list()
    target = static_frames[len(static_frames) // 2]
    provisioned.board.fpga.memory.write_frame(
        target, rng.randbytes(system.device.frame_bytes)
    )
    result = run_attestation(provisioned.prover, _fresh_verifier(record, seed + 1), rng)
    return AttackOutcome(
        attack_name="StatPart configuration substitution",
        adversary_class="remote",
        mounted=True,
        detected=not result.report.accepted,
        notes=(
            f"tampered static frame {target}; mismatches: "
            f"{result.report.mismatched_frames[:5]}"
        ),
    )


def impersonation_attack(
    provisioned: ProvisionedDevice, record: VerifierRecord, seed: int = 3001
) -> AttackOutcome:
    """Scenario 3: a clone without the PUF-derived key.

    The clone has an identical board and configuration but a different
    silicon fingerprint, so its MAC key differs and H_Prv fails.
    """
    rng = DeterministicRng(seed)
    clone_key = rng.fork("clone-key").randbytes(16)
    clone_prover = WrongKeyProver(
        provisioned.board, RegisterKey(clone_key), device_id="clone"
    )
    result = run_attestation(clone_prover, _fresh_verifier(record, seed + 1), rng)
    return AttackOutcome(
        attack_name="Prover impersonation (clone without key)",
        adversary_class="local",
        mounted=True,
        detected=not result.report.mac_valid,
        notes="clone produced configuration-correct frames but an invalid MAC",
    )


def proxy_attack(
    provisioned: ProvisionedDevice, record: VerifierRecord, seed: int = 4001
) -> AttackOutcome:
    """Scenario 4: connect an external computing device.

    Routing internal signals to an external helper requires changing the
    pin (IOB) configuration, and "the bitstream reflects which FPGA pins
    are connected to peripherals" — the extra connection shows up in the
    IOB frames of the readback.
    """
    system = record.system
    rng = DeterministicRng(seed)
    fabric = Fabric(system.device)
    static_iob = [
        frame
        for frame in fabric.iob_frames()
        if frame in system.partition.static_frames
    ]
    if not static_iob:
        return AttackOutcome(
            attack_name="External proxy device",
            adversary_class="local",
            mounted=False,
            detected=True,
            notes="floorplan has no static IOB frames to tamper",
        )
    target = static_iob[0]
    # Wire two extra pins to the helper device: a handful of IOB bits.
    for bit in range(4):
        provisioned.board.fpga.memory.flip_bit(target, 0, bit)
    result = run_attestation(provisioned.prover, _fresh_verifier(record, seed + 1), rng)
    return AttackOutcome(
        attack_name="External proxy device",
        adversary_class="local",
        mounted=True,
        detected=not result.report.accepted,
        notes=(
            f"extra pin connections in IOB frame {target} flagged: "
            f"{result.report.mismatched_frames[:5]}"
        ),
    )


def replay_attack(
    provisioned: ProvisionedDevice, record: VerifierRecord, seed: int = 5001
) -> AttackOutcome:
    """Scenario 5: replay a recorded session against a fresh challenge.

    The adversary records all responses of an honest run, then answers a
    *new* attestation with the recording.  The fresh nonce (configured
    into the nonce frame) makes the recorded nonce-frame content — and
    hence both the golden comparison and the MAC — stale.
    """
    rng = DeterministicRng(seed)
    verifier_one = _fresh_verifier(record, seed + 1)
    recorded = run_attestation(provisioned.prover, verifier_one, rng)
    if not recorded.report.accepted:
        return AttackOutcome(
            attack_name="Replay of a recorded session",
            adversary_class="local",
            mounted=False,
            detected=True,
            notes="could not record an accepted session to replay",
        )

    verifier_two = _fresh_verifier(record, seed + 2)
    fresh_nonce = verifier_two.new_nonce()
    plan = verifier_two.readback_plan()
    # The replayer re-orders its recording to match the new plan as best
    # it can (frame-indexed lookup), the strongest replay strategy.
    frame_bytes = record.system.device.frame_bytes
    by_frame = {}
    for slot, frame_index in enumerate(recorded.plan):
        by_frame.setdefault(
            frame_index, recorded.sweep[slot * frame_bytes : (slot + 1) * frame_bytes]
        )
    replayed = b"".join(by_frame[index] for index in plan if index in by_frame)
    report = verifier_two.evaluate(fresh_nonce, plan, replayed, recorded.tag)
    return AttackOutcome(
        attack_name="Replay of a recorded session",
        adversary_class="local",
        mounted=True,
        detected=not report.accepted,
        notes=(
            "stale nonce frame and/or MAC over a different readback order "
            "rejected"
        ),
    )


def nonce_suppression_attack(
    provisioned: ProvisionedDevice, record: VerifierRecord, seed: int = 5101
) -> AttackOutcome:
    """Scenario 5b: block the nonce update, keep everything else honest.

    Even if the adversary prevents the nonce configuration from reaching
    the device (hoping to make two runs identical), the readback returns
    the *old* nonce-frame content, which no longer matches the golden
    configuration for the new nonce.
    """
    system = record.system
    rng = DeterministicRng(seed)
    nonce_frames = set(system.partition.nonce_frame_list())
    prover = SkippingProver(
        provisioned.board,
        provisioned.key_provider,
        protected_frames=nonce_frames,
        device_id="prv-nonce-suppressed",
    )
    result = run_attestation(prover, _fresh_verifier(record, seed + 1), rng)
    return AttackOutcome(
        attack_name="Nonce-update suppression",
        adversary_class="local",
        mounted=True,
        detected=not result.report.accepted,
        notes=(
            f"stale nonce frame(s) {sorted(nonce_frames)} mismatch the "
            "fresh golden configuration"
        ),
    )


def bram_hoarding_attack(
    provisioned: ProvisionedDevice, record: VerifierRecord, seed: int = 6001
) -> AttackOutcome:
    """The bounded-memory attack: answer readbacks from a BRAM hoard.

    The adversary keeps malicious logic in some frames and tries to
    answer their readbacks with hoarded expected content.  The hoard is
    capped by the fabric's BRAM capacity; on the XC6VLX240T that is ~22 %
    of the frames, so the malicious frames cannot all be covered **and**
    the hoard itself displaces the application.  Here the adversary
    hoards as much as BRAM allows and tampers one frame *outside* the
    hoard — detection follows.
    """
    system = record.system
    rng = DeterministicRng(seed)
    inventory = BramInventory(system.device)
    prover = HoardingProver(provisioned.board, provisioned.key_provider)

    golden = system.golden_memory(b"\x00" * system.nonce_bytes)
    hoardable = min(prover.hoard_capacity_frames, system.device.total_frames)
    for frame_index in range(hoardable):
        prover.stash(frame_index, golden.read_frame(frame_index))

    # Malicious content in a frame beyond the hoard's reach, in the
    # static region so the configuration phase does not overwrite it.
    static_outside = [
        frame
        for frame in system.partition.static_frame_list()
        if frame >= hoardable
    ]
    if not static_outside:
        # The whole static region is hoardable on this (toy) device —
        # tamper a hoarded frame instead: the hoard hides it from the
        # MAC, but the hoarded content is stale for the fresh nonce run.
        target = system.partition.static_frame_list()[-1]
    else:
        target = static_outside[0]
    provisioned.board.fpga.memory.write_frame(
        target, rng.randbytes(system.device.frame_bytes)
    )

    result = run_attestation(
        prover,
        _fresh_verifier(record, seed + 1),
        rng,
        SessionOptions(scramble_registers=False),
    )
    return AttackOutcome(
        attack_name="BRAM hoarding (bounded-memory violation attempt)",
        adversary_class="remote",
        mounted=True,
        detected=not result.report.accepted,
        notes=(
            f"hoard capacity {inventory.frames_storable()} of "
            f"{system.device.total_frames} frames; tampered frame {target} "
            f"answered from the fabric"
        ),
    )


def run_all_scenarios(
    make_provisioned,
    seed: int = 7000,
) -> List[AttackOutcome]:
    """Run every scenario, each against a freshly provisioned device.

    ``make_provisioned`` is a zero-argument callable returning a fresh
    ``(ProvisionedDevice, VerifierRecord)`` pair — attacks mutate device
    state, so they must not share a board.
    """
    outcomes: List[AttackOutcome] = []
    scenarios = [
        lambda d, r: dynpart_malware_attack(d, r, seed, resist_overwrite=False),
        lambda d, r: dynpart_malware_attack(d, r, seed + 10, resist_overwrite=True),
        lambda d, r: statpart_insertion_attack(d, r, seed + 20),
        lambda d, r: statpart_substitution_attack(d, r, seed + 30),
        lambda d, r: impersonation_attack(d, r, seed + 40),
        lambda d, r: proxy_attack(d, r, seed + 50),
        lambda d, r: replay_attack(d, r, seed + 60),
        lambda d, r: nonce_suppression_attack(d, r, seed + 70),
        lambda d, r: bram_hoarding_attack(d, r, seed + 80),
    ]
    for scenario in scenarios:
        provisioned, record = make_provisioned()
        outcomes.append(scenario(provisioned, record))
    return outcomes
