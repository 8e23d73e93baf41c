"""Pre-deployment provisioning.

Everything that happens *before* the prover board is placed in the field
(Sections 3 and 5.2.1): program the BootMem with the static bitstream,
enroll the PUF (or install a key register), hand the key and the golden
design to the verifier, deploy.  After ``deploy`` the BootMem is
read-only and the only remote interface is the SACHa protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache import get_artifact_cache
from repro.design.sacha_design import SachaSystemDesign
from repro.errors import ProvisioningError
from repro.fpga.board import Board, Fpga
from repro.fpga.flash import BootMem
from repro.fpga.puf import PufKeySlot, SramPuf, enroll_device
from repro.core.prover import KeyProvider, PufDerivedKey, RegisterKey, SachaProver
from repro.obs import log as obs_log
from repro.utils.rng import DeterministicRng
from repro.utils.secret import SecretBytes

_log = obs_log.get_logger(__name__)

KEY_MODE_PUF = "puf"
KEY_MODE_REGISTER = "register"


@dataclass
class ProvisionedDevice:
    """A deployed prover board plus its provisioning artifacts."""

    device_id: str
    board: Board
    prover: SachaProver
    system: SachaSystemDesign
    key_provider: KeyProvider
    puf: Optional[SramPuf] = None
    key_slot: Optional[PufKeySlot] = None


@dataclass
class VerifierRecord:
    """What the verifier's database stores per enrolled device.

    ``mac_key`` is wrapped: the record reprs as ``<secret[16]>``, and
    consumers that need raw bytes say so via ``mac_key.reveal()`` (the
    verifier unwraps internally).
    """

    device_id: str
    mac_key: SecretBytes
    system: SachaSystemDesign


class VerifierDatabase:
    """The verifier-side (device → key, golden design) database."""

    def __init__(self) -> None:
        self._records: Dict[str, VerifierRecord] = {}

    def register(self, record: VerifierRecord) -> None:
        if record.device_id in self._records:
            raise ProvisioningError(
                f"device {record.device_id!r} is already enrolled"
            )
        self._records[record.device_id] = record

    def lookup(self, device_id: str) -> VerifierRecord:
        try:
            return self._records[device_id]
        except KeyError:
            raise ProvisioningError(
                f"device {device_id!r} is not enrolled"
            ) from None

    def __len__(self) -> int:
        return len(self._records)


def provision_device(
    system: SachaSystemDesign,
    device_id: str,
    seed: int,
    key_mode: str = KEY_MODE_PUF,
    puf_noise_rate: float = 0.05,
) -> tuple:
    """Provision one board and produce its verifier record.

    Returns ``(ProvisionedDevice, VerifierRecord)``.  The flow:

    1. build the static bitstream and program it into a BootMem sized per
       the bounded-memory rule (fits the static image, not the DynPart
       payload);
    2. enroll the PUF (``key_mode='puf'``) or draw a register key
       (``key_mode='register'``) — either way the verifier learns the key
       in this step and never over the network;
    3. deploy (flash becomes read-only), power on, declare the static
       design's storage elements.
    """
    rng = DeterministicRng(seed)
    boot_image = system.boot_image()
    flash = BootMem(system.recommended_bootmem_bytes())
    flash.program(boot_image)
    flash.deploy()

    puf: Optional[SramPuf] = None
    key_slot: Optional[PufKeySlot] = None
    if key_mode == KEY_MODE_PUF:
        puf = SramPuf(identity_seed=seed, noise_rate=puf_noise_rate)
        key, key_slot = enroll_device(puf, rng.fork("enrollment"))
        fpga = Fpga(system.device, puf=puf)
        key_provider: KeyProvider = PufDerivedKey(
            puf, key_slot, rng.fork("key-derivation")
        )
    elif key_mode == KEY_MODE_REGISTER:
        key = rng.fork("register-key").randbytes(16)
        fpga = Fpga(system.device)
        key_provider = RegisterKey(key)
    else:
        raise ProvisioningError(
            f"unknown key mode {key_mode!r}; use "
            f"{KEY_MODE_PUF!r} or {KEY_MODE_REGISTER!r}"
        )

    board = Board(fpga, flash)
    board.power_on()
    system.static_impl.declare_registers(fpga.registers)

    prover = SachaProver(board, key_provider, device_id=device_id)
    provisioned = ProvisionedDevice(
        device_id=device_id,
        board=board,
        prover=prover,
        system=system,
        key_provider=key_provider,
        puf=puf,
        key_slot=key_slot,
    )
    record = VerifierRecord(
        device_id=device_id, mac_key=SecretBytes(key), system=system
    )
    _log.info(
        "device_provisioned",
        device_id=device_id,
        device=system.device.name,
        key_mode=key_mode,
    )
    return provisioned, record


def materialize_device(
    part: str,
    device_id: str,
    seed: int,
    key_mode: str = KEY_MODE_PUF,
    puf_noise_rate: float = 0.05,
) -> tuple:
    """Rebuild a provisioned board from its registry facts.

    The simulated board is a pure function of ``(part, seed, key_mode)``,
    so a persistent device registry (``repro.fleet``) stores only those
    facts and re-materializes the device for every sweep instead of
    keeping boards alive between attestations — the key the rebuilt
    record derives is byte-identical to the one enrolled.  Returns
    ``(ProvisionedDevice, VerifierRecord)`` like :func:`provision_device`.

    The system build routes through the artifact cache: every device of
    the same part in a process shares one frozen golden template / mask
    / boot image bundle, while the board, PUF, registers and keys built
    here stay strictly per-device.
    """
    system = get_artifact_cache().get_system(part)
    return provision_device(
        system,
        device_id,
        seed=seed,
        key_mode=key_mode,
        puf_noise_rate=puf_noise_rate,
    )
