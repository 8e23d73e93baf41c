"""SHA-256: a thin wrapper over the standard library's ``hashlib``.

Used by the PUF fuzzy extractor (key derivation from the corrected
response), the signature extension, placement and bitgen content
derivation, and the baselines' checksum options.  The wrapper keeps the
repo's one incremental interface — ``update`` chains, ``digest`` is
non-destructive — so the e2e layer tracer has one place to time.
"""

from __future__ import annotations

import hashlib


class Sha256:
    """Incremental SHA-256."""

    DIGEST_SIZE = 32
    BLOCK_SIZE = 64

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def update(self, data: bytes) -> "Sha256":
        self._hash.update(data)
        return self

    def digest(self) -> bytes:
        """The digest so far; further updates may follow."""
        return self._hash.digest()

    def hexdigest(self) -> str:
        return self.digest().hex()


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest."""
    return Sha256().update(data).digest()
