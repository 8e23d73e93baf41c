"""Cryptographic primitives for the SACHa reproduction.

Software models of the hardware cores in the StatPart (AES, AES-CMAC),
written from scratch, and the auxiliary algorithms the baselines and the
PUF pipeline need (AES-CTR PRF, KDF, Schnorr).  SHA-256 is a thin
wrapper over the standard library's ``hashlib``.
"""

from repro.crypto.aes import BLOCK_SIZE, Aes
from repro.crypto.cmac import AesCmac, aes_cmac
from repro.crypto.kdf import derive_key, derive_mac_key
from repro.crypto.prf import AesCtrKeystream, prf_bytes
from repro.crypto.sha256 import Sha256, sha256

__all__ = [
    "BLOCK_SIZE",
    "Aes",
    "AesCmac",
    "aes_cmac",
    "derive_key",
    "derive_mac_key",
    "AesCtrKeystream",
    "prf_bytes",
    "Sha256",
    "sha256",
]
