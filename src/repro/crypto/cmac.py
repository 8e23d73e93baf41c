"""AES-CMAC (RFC 4493 / NIST SP 800-38B), with incremental steps.

The SACHa prover computes the MAC of the configuration memory in 28,488
per-frame steps: ``Init MAC_K``, one ``Update MAC_K`` per frame read back,
and a ``finalize MAC_K`` when the verifier sends the ``MAC_checksum``
command (Figure 9).  :class:`AesCmac` mirrors exactly that structure:
one :meth:`AesCmac.update` call per frame.  Absorption into the chain is
deferred: updates queue their bytes, and the queue is folded once
:data:`ABSORB_BYTES` are pending and at :meth:`AesCmac.finalize`.  CMAC
does not depend on how its input is chunked, so the tag is the same.

The chain itself runs on a pluggable block-cipher backend (see
:mod:`repro.perf.backends`): the from-scratch ``reference`` model, the
pure-Python ``table`` fast path, or the platform-AES ``native`` fold.
All are byte-identical.  Unless a backend is named explicitly the
platform decides: ``native`` when the optional ``cryptography`` package
imports, ``table`` otherwise.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.crypto.aes import BLOCK_SIZE
from repro.utils.bitops import xor_bytes

_MSB = 0x80
_RB = 0x87  # the constant R_128 from RFC 4493

#: Pending bytes at which :meth:`AesCmac.update` folds its queue into the
#: chain: one fold per ~200 XC6VLX240T frames instead of one per frame.
ABSORB_BYTES = 1 << 16

BytesLike = Union[bytes, bytearray, memoryview]


def _double(block: bytes) -> bytes:
    """Multiply by x in GF(2^128) as defined for CMAC subkeys."""
    value = int.from_bytes(block, "big")
    value <<= 1
    if value >> 128:
        value = (value & ((1 << 128) - 1)) ^ _RB
    return value.to_bytes(BLOCK_SIZE, "big")


class AesCmac:
    """Incremental AES-CMAC.

    Usage mirrors the hardware core::

        mac = AesCmac(key)          # Init MAC_K
        mac.update(frame_bytes)     # Update MAC_K, once per frame
        tag = mac.finalize()        # finalize MAC_K

    ``update`` may be called with arbitrary-length chunks; the result is
    identical to one-shot CMAC over the concatenation (a property test in
    ``tests/crypto`` checks this).  An update only queues its bytes (a
    copy of a mutable input); the queue is folded through
    :func:`repro.perf.backends.fold_frames` when :data:`ABSORB_BYTES`
    are pending, by ``update_frames`` and by ``finalize``.  So a
    full-device sweep of 28,488 frame updates costs ~141 chain folds.

    ``backend`` selects the block-cipher implementation by name
    (``reference`` / ``table`` / ``native``); when omitted, the platform
    decides (:func:`repro.perf.backends.resolve_backend_name`).
    """

    def __init__(self, key: bytes, backend: Optional[str] = None) -> None:
        from repro.perf.backends import get_cipher

        self._cipher = get_cipher(key, backend)
        zero = self._cipher.encrypt_block(bytes(BLOCK_SIZE))
        self._k1 = _double(zero)
        self._k2 = _double(self._k1)
        self._state = bytes(BLOCK_SIZE)
        #: The 0..16 unabsorbed bytes the final block is taken from.
        self._buffer = b""
        self._pending: List[BytesLike] = []
        self._pending_bytes = 0
        self._finalized = False

    @property
    def backend(self) -> str:
        """The concrete backend name this instance runs on."""
        return self._cipher.name

    def update(self, data: BytesLike) -> "AesCmac":
        if self._finalized:
            raise ValueError("CMAC already finalized; create a new instance")
        chunk = bytes(data)
        self._pending.append(chunk)
        self._pending_bytes += len(chunk)
        if self._pending_bytes >= ABSORB_BYTES:
            self._absorb()
        return self

    def update_frames(self, frames: Iterable[BytesLike]) -> "AesCmac":
        """Fold a whole frame sweep: one join, one chain fold.

        Equivalent to calling :meth:`update` once per frame.
        """
        if self._finalized:
            raise ValueError("CMAC already finalized; create a new instance")
        self._pending.extend(frames)
        self._absorb()
        return self

    def _absorb(self) -> None:
        """Fold the queued bytes into the chain, keeping the final block."""
        from repro.perf.backends import fold_frames

        self._state, tail = fold_frames(
            self._cipher, self._state, self._buffer, self._pending
        )
        self._buffer = bytes(tail)
        self._pending = []
        self._pending_bytes = 0

    def finalize(self) -> bytes:
        if self._finalized:
            raise ValueError("CMAC already finalized; create a new instance")
        self._absorb()
        self._finalized = True
        block = self._buffer
        if len(block) == BLOCK_SIZE:
            last = xor_bytes(block, self._k1)
        else:
            padded = block + b"\x80" + bytes(BLOCK_SIZE - len(block) - 1)
            last = xor_bytes(padded, self._k2)
        return self._cipher.encrypt_block(xor_bytes(self._state, last))


def aes_cmac(key: bytes, message: bytes, backend: Optional[str] = None) -> bytes:
    """One-shot AES-CMAC of ``message`` under ``key``."""
    return AesCmac(key, backend=backend).update(message).finalize()
