"""Pluggable AES-CMAC block-cipher backends.

The incremental CMAC chain is ``state = E_K(state XOR block)`` for every
16-byte block, followed by one subkey-treated final block.  Everything a
backend must provide is therefore two operations:

* ``encrypt_block`` — one raw AES encryption (subkey derivation and the
  final block);
* ``fold`` — absorb a whole buffer of complete blocks into the chain.

Three implementations exist, all byte-identical (known-answer and
property tests enforce it):

``reference``
    The seed's from-scratch :class:`repro.crypto.aes.Aes`, one
    ``encrypt_block`` call per block.  Slowest, zero dependencies, the
    ground truth.

``table``
    A pure-Python fast path: the same precomputed T-tables, but with the
    whole round function unrolled into one generated loop that keeps the
    chain state as four 32-bit words and never materializes per-block
    byte strings.  ~2.5x the reference on long folds, still dependency
    free.

``native``
    Delegates the fold to the platform AES (OpenSSL via the optional
    ``cryptography`` package) using the CBC identity: CBC-encrypting the
    buffer with IV = state yields the chain state as the last ciphertext
    block.  A chain folded frame by frame streams through one open CBC
    encryptor.  Orders of magnitude faster; gated on import, never
    required.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.aes import BLOCK_SIZE, SBOX, Aes, encryption_tables, expand_round_keys
from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.utils.bitops import xor_bytes

BACKEND_REFERENCE = "reference"
BACKEND_TABLE = "table"
BACKEND_NATIVE = "native"

BytesLike = Union[bytes, bytearray, memoryview]

try:  # gated optional dependency — never required, never installed here
    from cryptography.hazmat.primitives.ciphers import (  # type: ignore
        Cipher as _OsslCipher,
        algorithms as _ossl_algorithms,
        modes as _ossl_modes,
    )

    _HAVE_CRYPTOGRAPHY = True
except ImportError:  # pragma: no cover - depends on the environment
    _HAVE_CRYPTOGRAPHY = False


def native_available() -> bool:
    """Whether the ``native`` backend can be used in this environment."""
    return _HAVE_CRYPTOGRAPHY


def available_backends() -> Tuple[str, ...]:
    """Backend names usable right now, reference first."""
    names = [BACKEND_REFERENCE, BACKEND_TABLE]
    if native_available():
        names.append(BACKEND_NATIVE)
    return tuple(names)


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Map a requested backend (or ``None``/``auto``) to a concrete one."""
    if name is None or name == "auto":
        from repro.perf.config import get_config

        name = get_config().aes_backend
    if name == "auto":
        return BACKEND_NATIVE if native_available() else BACKEND_TABLE
    if name == BACKEND_NATIVE and not native_available():
        raise ReproError(
            "the 'native' AES backend needs the optional 'cryptography' "
            "package; install it or select 'table'/'reference'"
        )
    if name not in (BACKEND_REFERENCE, BACKEND_TABLE, BACKEND_NATIVE):
        raise ReproError(
            f"unknown AES backend {name!r}; choose from "
            f"{BACKEND_REFERENCE}, {BACKEND_TABLE}, {BACKEND_NATIVE} or auto"
        )
    return name


# (registry, generation, counter) for the fold counter: folds run once
# per MAC'd frame, so the registry's locked lookup is cached away.
_FOLD_COUNTER = None


def _count_fold(backend: str, blocks: int) -> None:
    """Perf counter: blocks absorbed per backend (no-op when obs is off)."""
    global _FOLD_COUNTER
    registry = get_registry()
    if not registry.enabled:
        return
    cached = _FOLD_COUNTER
    if (
        cached is None
        or cached[0] is not registry
        or cached[1] != registry.generation
        or cached[2] != backend
    ):
        counter = registry.counter(
            "sacha_mac_blocks_folded_total",
            "AES-CMAC blocks folded into chain state, by backend",
            labels=("backend",),
        )
        cached = (
            registry,
            registry.generation,
            backend,
            counter.series(backend=backend),
        )
        _FOLD_COUNTER = cached
    cached[3].inc(blocks)


class ReferenceCipher:
    """The seed implementation: one object-churning call per block."""

    name = BACKEND_REFERENCE

    def __init__(self, key: bytes) -> None:
        self._aes = Aes(key)

    def encrypt_block(self, block: bytes) -> bytes:
        return self._aes.encrypt_block(block)

    def fold(self, state: bytes, buffer: BytesLike) -> bytes:
        data = bytes(buffer)
        encrypt = self._aes.encrypt_block
        for offset in range(0, len(data), BLOCK_SIZE):
            state = encrypt(xor_bytes(state, data[offset : offset + BLOCK_SIZE]))
        _count_fold(self.name, len(data) // BLOCK_SIZE)
        return state


# -- table backend: generated, unrolled chain fold ---------------------------

_FOLD_CACHE: Dict[int, object] = {}


def _generate_fold(rounds: int):
    """Compile a CBC-chain fold specialized for ``rounds`` AES rounds.

    The generated function keeps the chain state in four ints, reads the
    message as a flat tuple of big-endian words and runs the fully
    unrolled T-table rounds per block — no per-block allocation at all.
    """
    total_keys = 4 * (rounds + 1)
    key_names = [f"k{i}" for i in range(total_keys)]
    lines = [
        "def fold(s0, s1, s2, s3, words, K, T0, T1, T2, T3, SB):",
        "    (" + ", ".join(key_names) + ",) = K",
        "    i = 0",
        "    n = len(words)",
        "    while i < n:",
        "        s0 = s0 ^ words[i] ^ k0",
        "        s1 = s1 ^ words[i + 1] ^ k1",
        "        s2 = s2 ^ words[i + 2] ^ k2",
        "        s3 = s3 ^ words[i + 3] ^ k3",
    ]
    for round_index in range(1, rounds):
        o = 4 * round_index
        lines += [
            f"        t0 = T0[s0 >> 24] ^ T1[(s1 >> 16) & 255]"
            f" ^ T2[(s2 >> 8) & 255] ^ T3[s3 & 255] ^ k{o}",
            f"        t1 = T0[s1 >> 24] ^ T1[(s2 >> 16) & 255]"
            f" ^ T2[(s3 >> 8) & 255] ^ T3[s0 & 255] ^ k{o + 1}",
            f"        t2 = T0[s2 >> 24] ^ T1[(s3 >> 16) & 255]"
            f" ^ T2[(s0 >> 8) & 255] ^ T3[s1 & 255] ^ k{o + 2}",
            f"        t3 = T0[s3 >> 24] ^ T1[(s0 >> 16) & 255]"
            f" ^ T2[(s1 >> 8) & 255] ^ T3[s2 & 255] ^ k{o + 3}",
            "        s0, s1, s2, s3 = t0, t1, t2, t3",
        ]
    o = 4 * rounds
    lines += [
        f"        r0 = ((SB[s0 >> 24] << 24) | (SB[(s1 >> 16) & 255] << 16)"
        f" | (SB[(s2 >> 8) & 255] << 8) | SB[s3 & 255]) ^ k{o}",
        f"        r1 = ((SB[s1 >> 24] << 24) | (SB[(s2 >> 16) & 255] << 16)"
        f" | (SB[(s3 >> 8) & 255] << 8) | SB[s0 & 255]) ^ k{o + 1}",
        f"        r2 = ((SB[s2 >> 24] << 24) | (SB[(s3 >> 16) & 255] << 16)"
        f" | (SB[(s0 >> 8) & 255] << 8) | SB[s1 & 255]) ^ k{o + 2}",
        f"        r3 = ((SB[s3 >> 24] << 24) | (SB[(s0 >> 16) & 255] << 16)"
        f" | (SB[(s1 >> 8) & 255] << 8) | SB[s2 & 255]) ^ k{o + 3}",
        "        s0, s1, s2, s3 = r0, r1, r2, r3",
        "        i += 4",
        "    return s0, s1, s2, s3",
    ]
    namespace: Dict[str, object] = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - static, key-independent source
    return namespace["fold"]


def _fold_for(rounds: int):
    fold = _FOLD_CACHE.get(rounds)
    if fold is None:
        fold = _generate_fold(rounds)
        _FOLD_CACHE[rounds] = fold
    return fold


class TableCipher:
    """Pure-Python T-table fast path with int-word chain state."""

    name = BACKEND_TABLE

    def __init__(self, key: bytes) -> None:
        round_keys = expand_round_keys(key)
        self._keys = tuple(round_keys)
        self._rounds = len(round_keys) // 4 - 1
        self._fold = _fold_for(self._rounds)
        self._tables = encryption_tables()

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        # E(block) == fold from the zero state: the chain XOR is a no-op.
        words = struct.unpack(">4I", block)
        t0, t1, t2, t3 = self._tables
        s0, s1, s2, s3 = self._fold(
            0, 0, 0, 0, words, self._keys, t0, t1, t2, t3, SBOX
        )
        return struct.pack(">4I", s0, s1, s2, s3)

    def fold(self, state: bytes, buffer: BytesLike) -> bytes:
        length = len(buffer)
        if length % BLOCK_SIZE:
            raise ValueError(f"fold needs whole blocks, got {length} bytes")
        words = struct.unpack(f">{length // 4}I", buffer)
        s0, s1, s2, s3 = struct.unpack(">4I", state)
        t0, t1, t2, t3 = self._tables
        s0, s1, s2, s3 = self._fold(
            s0, s1, s2, s3, words, self._keys, t0, t1, t2, t3, SBOX
        )
        _count_fold(self.name, length // BLOCK_SIZE)
        return struct.pack(">4I", s0, s1, s2, s3)


#: Longest buffer the native fold hands OpenSSL in one update: a whole
#: block multiple, small enough that each ciphertext is reused heap.
_NATIVE_FOLD_SLICE_BYTES = 1 << 16


class NativeCipher:
    """Platform AES (OpenSSL through ``cryptography``): CBC-identity fold.

    The chain streams through one open CBC encryptor.  Continuing a CBC
    chain from state S is the same as opening a new encryptor with
    IV = S, so when ``fold`` is handed back the exact state object it
    last returned (an identity check: the cipher holds that object, so
    its identity cannot be recycled) it keeps feeding the open
    encryptor; any other state — a branch from an older state, another
    chain under the same key — opens a fresh one.  Either way the result
    is byte-identical; the stream only skips the per-call encryptor
    construction that otherwise dwarfs the AES work on frame-sized
    folds.
    """

    name = BACKEND_NATIVE

    def __init__(self, key: bytes) -> None:
        if not _HAVE_CRYPTOGRAPHY:  # pragma: no cover - guarded by resolver
            raise ReproError("the 'cryptography' package is not available")
        self._algorithm = _ossl_algorithms.AES(bytes(key))
        self._encryptor: Any = None
        self._chain: Optional[bytes] = None

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        encryptor = _OsslCipher(self._algorithm, _ossl_modes.ECB()).encryptor()
        return encryptor.update(block) + encryptor.finalize()

    def fold(self, state: bytes, buffer: BytesLike) -> bytes:
        length = len(buffer)
        if length % BLOCK_SIZE:
            raise ValueError(f"fold needs whole blocks, got {length} bytes")
        if not length:
            return state
        # CBC with IV = state computes c_i = E(c_{i-1} XOR m_i): exactly
        # the CMAC chain, so the final ciphertext block IS the new state.
        encryptor = self._encryptor
        if encryptor is None or state is not self._chain:
            encryptor = _OsslCipher(
                self._algorithm, _ossl_modes.CBC(bytes(state))
            ).encryptor()
            self._encryptor = encryptor
        if length > _NATIVE_FOLD_SLICE_BYTES:
            # One update over a whole sweep would build a sweep-sized
            # ciphertext (fresh pages, faulted in on every verdict) only
            # to keep its last block; slices keep each output small.
            view = memoryview(buffer)
            while len(view) > _NATIVE_FOLD_SLICE_BYTES:
                encryptor.update(view[:_NATIVE_FOLD_SLICE_BYTES])
                view = view[_NATIVE_FOLD_SLICE_BYTES:]
            buffer = view
        chain = encryptor.update(buffer)[-BLOCK_SIZE:]
        self._chain = chain
        _count_fold(self.name, length // BLOCK_SIZE)
        return chain


CipherLike = Union[ReferenceCipher, TableCipher, NativeCipher]

_CIPHER_CLASSES = {
    BACKEND_REFERENCE: ReferenceCipher,
    BACKEND_TABLE: TableCipher,
    BACKEND_NATIVE: NativeCipher,
}


def get_cipher(key: bytes, backend: Optional[str] = None) -> CipherLike:
    """Instantiate the chain cipher for ``key`` on the resolved backend."""
    name = resolve_backend_name(backend)
    return _CIPHER_CLASSES[name](key)


def fold_frames(
    cipher: CipherLike, state: bytes, tail: bytes, frames: Sequence[BytesLike]
) -> Tuple[bytes, bytes]:
    """Fold a sweep of frames into ``(state, tail)`` without per-frame churn.

    ``tail`` is the carry of 1..16 buffered bytes the incremental CMAC
    must keep for final-block subkey treatment.  Returns the new state
    and the new tail.  One join, one fold — regardless of frame count.
    """
    pieces: List[BytesLike] = [tail] if tail else []
    pieces.extend(frames)
    buffer = b"".join(pieces)
    if len(buffer) <= BLOCK_SIZE:
        return state, buffer
    keep = len(buffer) % BLOCK_SIZE or BLOCK_SIZE
    foldable = len(buffer) - keep
    state = cipher.fold(state, memoryview(buffer)[:foldable])
    return state, buffer[foldable:]
