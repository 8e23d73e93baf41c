"""SACHa: Self-Attestation of Configurable Hardware — full reproduction.

A frame-accurate simulation of the SACHa system (Vliegen, Rabbani,
Conti, Mentens — DATE 2019 and its extended version): an FPGA
architecture and attestation protocol that let an SRAM-based FPGA prove
its *entire* configuration memory to a remote verifier without a
tamper-resistant hardware module.

Quick start::

    from repro import quick_attestation

    report = quick_attestation()
    print(report.explain())

Package map:

* ``repro.core``      — prover, verifier, protocol (the contribution);
* ``repro.fpga``      — device, configuration memory, ICAP, bitstreams;
* ``repro.design``    — core library, placer, bitgen, the Fig.-10 design;
* ``repro.crypto``    — AES, AES-CMAC (from scratch), SHA-256 (hashlib);
* ``repro.net``       — Ethernet, channel, SACHa wire format;
* ``repro.timing``    — Table-3/4 models and the network-overhead gap;
* ``repro.baselines`` — Perito–Tsudik PoSE, SWATT, Chaves, Drimer–Kuhn;
* ``repro.attacks``   — the Section-7.2 adversaries, executable;
* ``repro.system``    — FPGA-as-trusted-module attestation of a µP;
* ``repro.analysis``  — experiment registry E1–E11 and table rendering.
"""

from repro.core import (
    AttestationReport,
    SachaProver,
    SachaVerifier,
    SessionOptions,
    attest,
    provision_device,
    run_attestation,
)
from repro.design import build_sacha_system
from repro.fpga import SIM_MEDIUM, SIM_SMALL, XC6VLX240T
from repro.utils.rng import DeterministicRng

__version__ = "1.0.0"

__all__ = [
    "AttestationReport",
    "SachaProver",
    "SachaVerifier",
    "SessionOptions",
    "attest",
    "provision_device",
    "run_attestation",
    "build_sacha_system",
    "SIM_MEDIUM",
    "SIM_SMALL",
    "XC6VLX240T",
    "DeterministicRng",
    "quick_attestation",
]


def quick_attestation(device=SIM_MEDIUM, seed: int = 2019) -> AttestationReport:
    """Provision a device and run one honest attestation.

    The three-line demo: build the SACHa system for ``device``, provision
    a board (BootMem + PUF enrollment), run the full protocol, and return
    the verifier's report.
    """
    system = build_sacha_system(device)
    provisioned, record = provision_device(system, "quickstart", seed=seed)
    verifier = SachaVerifier(
        record.system, record.mac_key, DeterministicRng(seed + 1)
    )
    return attest(provisioned.prover, verifier, DeterministicRng(seed + 2))
