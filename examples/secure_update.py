#!/usr/bin/env python
"""Secure application update — the Perito–Tsudik story on an FPGA.

SACHa's configuration phase *is* a secure code update: every attestation
overwrites the whole dynamic partition with the intended application, so
deploying a new application is just attesting with a new golden design.
The run proves (a) the new application is in place and (b) nothing of
the old configuration — malicious or not — survived.

The demo also runs the original processor-world protocol (proof of
secure erasure / secure code update on a bounded-memory MCU) next to
the FPGA version, showing the shared argument.

Run:  python examples/secure_update.py
"""

from repro import DeterministicRng, SIM_MEDIUM, build_sacha_system
from repro.baselines import (
    BoundedMemoryMcu,
    ResidentMalware,
    proof_of_secure_erasure,
    secure_code_update,
)
from repro.core import SachaVerifier, provision_device, run_attestation
from repro.design import APP_AES_ACCELERATOR, APP_BLINKER


def fpga_update_demo() -> None:
    print("=== FPGA: application update via attestation ===\n")
    version_one = build_sacha_system(SIM_MEDIUM, app_cores=[APP_BLINKER])
    provisioned, record = provision_device(version_one, "field-board", seed=7)

    verifier_v1 = SachaVerifier(version_one, record.mac_key, DeterministicRng(1))
    result = run_attestation(provisioned.prover, verifier_v1, DeterministicRng(2))
    print(f"v1 (blinker) deployed + attested: {result.report.accepted}")

    # An adversary plants a malicious module in the dynamic partition...
    target = version_one.partition.application_frame_list()[0]
    provisioned.board.fpga.memory.write_frame(
        target, bytes([0xEE]) * SIM_MEDIUM.frame_bytes
    )
    print(f"adversary wrote malicious config into frame {target}")

    # ... and the v2 rollout both *erases* it and proves the new app.
    version_two = build_sacha_system(SIM_MEDIUM, app_cores=[APP_AES_ACCELERATOR])
    verifier_v2 = SachaVerifier(version_two, record.mac_key, DeterministicRng(3))
    result = run_attestation(provisioned.prover, verifier_v2, DeterministicRng(4))
    print(
        f"v2 (AES accelerator) update + attestation: "
        f"{'ACCEPTED' if result.report.accepted else 'REJECTED'} — the "
        "malicious module was overwritten by the update itself"
    )

    # The old verifier record now correctly refuses the device.
    stale = verifier_v1.evaluate(result.nonce, result.plan, result.sweep, result.tag)
    print(f"v1 golden reference vs updated device: accepted={stale.accepted} "
          "(the verdict is bound to the exact intended configuration)")


def mcu_reference_demo() -> None:
    print("\n=== MCU reference: Perito–Tsudik proofs [1] ===\n")
    rng = DeterministicRng(100)
    key = rng.fork("key").randbytes(16)

    clean = BoundedMemoryMcu(4096, key)
    result = proof_of_secure_erasure(clean, key, rng.fork("pose-clean"))
    print(f"clean MCU, proof of secure erasure: {result.explain()}")

    infected = BoundedMemoryMcu(
        4096, key, malware=ResidentMalware(offset=2048, body=b"\xBD" * 64)
    )
    result = proof_of_secure_erasure(infected, key, rng.fork("pose-bad"))
    print(f"infected MCU, proof of secure erasure: {result.explain()}")

    fresh = BoundedMemoryMcu(4096, key)
    result = secure_code_update(fresh, key, rng.fork("update"), b"\x90" * 700)
    print(f"secure code update of 700 bytes: {result.explain()}")


if __name__ == "__main__":
    fpga_update_demo()
    mcu_reference_demo()
