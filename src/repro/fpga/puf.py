"""Weak PUF model and fuzzy-extractor key generation.

SACHa derives the AES-CMAC key from a *weak* (key-generating) PUF so the
key exists only inside the legitimate device and never crosses the
channel (Section 5.2.1).  The paper assumes an ideal key-generating PUF;
we model the realistic pipeline it stands for:

* an SRAM PUF with a device-unique nominal response and i.i.d. read
  noise;
* a code-offset fuzzy extractor with repetition-code error correction;
* SHA-256-based key derivation from the corrected secret.

Enrollment happens in the same provisioning step that programs BootMem;
the verifier keeps the (device id → key) database.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.kdf import derive_mac_key
from repro.crypto.sha256 import sha256
from repro.errors import PufError
from repro.utils.rng import DeterministicRng


class SramPuf:
    """A weak PUF: stable per-device fingerprint plus read noise.

    ``identity_seed`` stands for the silicon; two PUFs built from the same
    seed are *the same device*.  ``noise_rate`` is the per-bit flip
    probability on each evaluation (typical SRAM PUFs: 5–15 %).
    """

    def __init__(
        self,
        identity_seed: int,
        response_bytes: int = 256,
        noise_rate: float = 0.05,
    ) -> None:
        if response_bytes <= 0:
            raise PufError(f"response size must be positive, got {response_bytes}")
        if not 0.0 <= noise_rate < 0.5:
            raise PufError(f"noise rate must be in [0, 0.5), got {noise_rate}")
        self._response_bytes = response_bytes
        self._noise_rate = noise_rate
        self._nominal = DeterministicRng(identity_seed).fork("sram-puf").randbytes(
            response_bytes
        )

    @property
    def response_bytes(self) -> int:
        return self._response_bytes

    @property
    def noise_rate(self) -> float:
        return self._noise_rate

    def nominal_response(self) -> bytes:
        """The noise-free fingerprint (used only at enrollment time)."""
        return self._nominal

    def evaluate(self, rng: DeterministicRng) -> bytes:
        """One noisy read of the PUF.

        One uniform draw per bit, byte by byte and LSB first, flips the
        bit when it falls below the noise rate.
        """
        if self._noise_rate == 0.0:
            return self._nominal
        uniforms = rng.uniforms(self._response_bytes * 8)
        flips = np.packbits(uniforms < self._noise_rate, bitorder="little")
        return (np.frombuffer(self._nominal, dtype=np.uint8) ^ flips).tobytes()


@dataclass(frozen=True)
class HelperData:
    """Public fuzzy-extractor helper data stored with the device.

    ``offset`` is codeword ⊕ response; revealing it leaks nothing about
    the key beyond the repetition-code redundancy (standard code-offset
    construction).  ``key_check`` lets reconstruction detect failure.
    """

    repetition: int
    key_bits: int
    offset: bytes
    key_check: bytes


class FuzzyExtractor:
    """Code-offset fuzzy extractor with an r-repetition code."""

    def __init__(self, repetition: int = 15, key_bytes: int = 16) -> None:
        if repetition < 1 or repetition % 2 == 0:
            raise PufError(f"repetition factor must be odd and >= 1, got {repetition}")
        if key_bytes <= 0:
            raise PufError(f"key size must be positive, got {key_bytes}")
        self._repetition = repetition
        self._key_bytes = key_bytes

    @property
    def required_response_bytes(self) -> int:
        """PUF response size needed for the chosen parameters."""
        total_bits = self._key_bytes * 8 * self._repetition
        return (total_bits + 7) // 8

    def enroll(self, puf: SramPuf, rng: DeterministicRng) -> HelperData:
        """Enrollment: pick a secret, bind it to the nominal response."""
        if puf.response_bytes < self.required_response_bytes:
            raise PufError(
                f"PUF response of {puf.response_bytes} bytes is too small; "
                f"need {self.required_response_bytes}"
            )
        secret = rng.randbytes(self._key_bytes)
        secret_bits = np.unpackbits(
            np.frombuffer(secret, dtype=np.uint8), bitorder="little"
        )
        codeword = np.packbits(
            np.repeat(secret_bits, self._repetition), bitorder="little"
        )
        response = np.frombuffer(
            puf.nominal_response(), dtype=np.uint8, count=len(codeword)
        )
        offset = (codeword ^ response).tobytes()
        return HelperData(
            repetition=self._repetition,
            key_bits=self._key_bytes * 8,
            offset=offset,
            key_check=sha256(secret)[:8],
        )

    def reconstruct(self, puf: SramPuf, helper: HelperData, rng: DeterministicRng) -> bytes:
        """Recover the enrolled secret from a fresh noisy PUF read."""
        if helper.repetition != self._repetition or helper.key_bits != self._key_bytes * 8:
            raise PufError("helper data does not match extractor parameters")
        if len(helper.offset) < self.required_response_bytes:
            raise PufError(
                f"helper offset of {len(helper.offset)} bytes is too short; "
                f"{helper.key_bits} key bits x {self._repetition} repetitions "
                f"need {self.required_response_bytes}"
            )
        if puf.response_bytes < len(helper.offset):
            raise PufError(
                f"PUF response of {puf.response_bytes} bytes does not cover "
                f"the {len(helper.offset)}-byte helper offset"
            )
        offset = np.frombuffer(helper.offset, dtype=np.uint8)
        response = np.frombuffer(
            puf.evaluate(rng), dtype=np.uint8, count=len(offset)
        )
        code_bits = helper.key_bits * self._repetition
        noisy_bits = np.unpackbits(offset ^ response, bitorder="little")
        groups = noisy_bits[:code_bits].reshape(helper.key_bits, self._repetition)
        secret = np.packbits(
            groups.sum(axis=1) * 2 > self._repetition, bitorder="little"
        ).tobytes()
        if sha256(secret)[:8] != helper.key_check:
            raise PufError(
                "PUF key reconstruction failed (noise exceeded the "
                "repetition code's correction capacity)"
            )
        return secret


@dataclass(frozen=True)
class PufKeySlot:
    """What the device stores: helper data for re-deriving the MAC key."""

    helper: HelperData
    extractor_repetition: int

    def derive_key(
        self, puf: SramPuf, rng: DeterministicRng, max_attempts: int = 5
    ) -> bytes:
        """Re-derive the MAC key, retrying on fresh PUF reads.

        A single noisy read can exceed the repetition code's correction
        capacity; reads are independent, so the extractor simply reads
        again (standard practice in PUF key generators).
        """
        extractor = FuzzyExtractor(
            repetition=self.extractor_repetition,
            key_bytes=self.helper.key_bits // 8,
        )
        last_error: PufError = PufError("no attempts made")
        for _ in range(max_attempts):
            try:
                secret = extractor.reconstruct(puf, self.helper, rng)
            except PufError as error:
                last_error = error
                continue
            return derive_mac_key(secret)
        raise last_error


def enroll_device(
    puf: SramPuf,
    rng: DeterministicRng,
    repetition: int = 15,
    key_bytes: int = 16,
) -> tuple:
    """Full enrollment: returns (device key, key slot for the device).

    The verifier stores the key in its database; the device stores only
    the helper data and re-derives the key from its PUF at power-on.
    """
    extractor = FuzzyExtractor(repetition=repetition, key_bytes=key_bytes)
    helper = extractor.enroll(puf, rng)
    slot = PufKeySlot(helper=helper, extractor_repetition=repetition)
    # Verification reconstruct with fresh-read retries, like the device
    # does at every power-on (a single noisy read may exceed the code).
    key = slot.derive_key(puf, rng.fork("enroll-verify"))
    return key, slot
