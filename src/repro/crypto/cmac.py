"""AES-CMAC (RFC 4493 / NIST SP 800-38B), with incremental steps.

The SACHa prover computes the MAC of the configuration memory in 28,488
per-frame steps: ``Init MAC_K``, one ``Update MAC_K`` per frame read back,
and a ``finalize MAC_K`` when the verifier sends the ``MAC_checksum``
command (Figure 9).  :class:`AesCmac` mirrors exactly that structure.

The chain itself runs on a pluggable block-cipher backend (see
:mod:`repro.perf.backends`): the from-scratch ``reference`` model, the
pure-Python ``table`` fast path, or the platform-AES ``native`` fold.
All are byte-identical.  Unless a backend is named explicitly the
platform decides: ``native`` when the optional ``cryptography`` package
imports, ``table`` otherwise.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.crypto.aes import BLOCK_SIZE
from repro.utils.bitops import xor_bytes

_MSB = 0x80
_RB = 0x87  # the constant R_128 from RFC 4493

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
    ``tests/crypto`` checks this).  ``update_frames`` folds a whole
    readback sweep in one pass — same tag, none of the per-frame
    buffering.

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
        self._buffer = b""
        self._finalized = False

    @property
    def backend(self) -> str:
        """The concrete backend name this instance runs on."""
        return self._cipher.name

    def update(self, data: BytesLike) -> "AesCmac":
        if self._finalized:
            raise ValueError("CMAC already finalized; create a new instance")
        buffer = self._buffer + bytes(data)
        # Keep at least one byte buffered: the final block needs subkey
        # treatment, so we may only absorb a block once we know more data
        # follows it.
        if len(buffer) > BLOCK_SIZE:
            keep = len(buffer) % BLOCK_SIZE or BLOCK_SIZE
            foldable = len(buffer) - keep
            self._state = self._cipher.fold(
                self._state, memoryview(buffer)[:foldable]
            )
            buffer = buffer[foldable:]
        self._buffer = buffer
        return self

    def update_frames(self, frames: Iterable[BytesLike]) -> "AesCmac":
        """Fold a whole frame sweep: one join, one chain fold.

        Equivalent to calling :meth:`update` once per frame, without the
        28,488 intermediate buffer mutations of a full-device readback.
        """
        if self._finalized:
            raise ValueError("CMAC already finalized; create a new instance")
        from repro.perf.backends import fold_frames

        self._state, tail = fold_frames(
            self._cipher, self._state, self._buffer, list(frames)
        )
        self._buffer = bytes(tail)
        return self

    def finalize(self) -> bytes:
        if self._finalized:
            raise ValueError("CMAC already finalized; create a new instance")
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
