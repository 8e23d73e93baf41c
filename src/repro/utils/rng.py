"""Deterministic randomness for reproducible simulations.

Every stochastic element in the library (PUF noise, link faults, nonce
generation, attack payloads) draws from a :class:`DeterministicRng` seeded
explicitly by the caller, so every experiment in EXPERIMENTS.md can be
regenerated bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: ``randint(0, 1)`` draws ``getrandbits(2)`` -- the top two bits of one
#: 32-bit Mersenne Twister output -- and draws again while they read 2
#: or 3.  Over the top byte of each output: bytes from 0x80 up are
#: redrawn, and the others give their bit 6.
_TOP_BYTE_REDRAWN = bytes(range(0x80, 0x100))
_TOP_BYTE_FLIP = bytes((byte >> 6) & 1 for byte in range(0x100))


class DeterministicRng:
    """A seeded random source with the handful of draws the library needs.

    Wraps :class:`random.Random` (Mersenne Twister) behind a narrow
    interface so the underlying generator can be swapped without touching
    call sites.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent stream identified by ``label``.

        Forking keeps subsystems (e.g. PUF noise vs link faults)
        decoupled: adding draws to one does not perturb the other.

        The derivation must be stable across processes — Python's
        built-in ``hash()`` is salted per interpreter, which would make
        two CLI invocations of the same seed disagree — so the child
        seed is taken from a SHA-256 of (seed, label).
        """
        material = f"{self._seed}:{label}".encode()
        derived = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return DeterministicRng(derived)

    def randbytes(self, count: int) -> bytes:
        if count < 0:
            raise ValueError(f"cannot draw {count} bytes")
        return self._random.getrandbits(count * 8).to_bytes(count, "big") if count else b""

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` draws of :meth:`random` as one float64 array.

        The same floats as ``count`` calls of :meth:`random`, leaving the
        generator in the same state.  CPython's ``random()`` is
        ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` over two consecutive
        32-bit outputs ``a, b``, and ``getrandbits(64 * count)`` yields
        those outputs least-significant word first.
        """
        if count <= 0:
            return np.empty(0)
        words = np.frombuffer(
            self._random.getrandbits(64 * count).to_bytes(8 * count, "little"),
            dtype="<u4",
        )
        high = words[0::2] >> 5
        low = words[1::2] >> 6
        return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)

    def coin_flips(self, count: int) -> np.ndarray:
        """``count`` draws of ``randint(0, 1)`` as one uint8 array.

        The same values as ``count`` calls of :meth:`randint`, leaving
        the generator in the same state.  Each round draws one output
        per flip still missing, so it never draws past the last output
        the per-call loop would have used; a round keeps the outputs
        whose top bit is clear (see ``_TOP_BYTE_FLIP``).
        """
        flips = []
        missing = count
        while missing > 0:
            top_bytes = self._random.getrandbits(32 * missing).to_bytes(
                4 * missing, "little"
            )[3::4]
            kept = top_bytes.translate(_TOP_BYTE_FLIP, _TOP_BYTE_REDRAWN)
            flips.append(kept)
            missing -= len(kept)
        return np.frombuffer(bytearray(b"".join(flips)), dtype=np.uint8)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self._random.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def permutation(self, count: int) -> List[int]:
        """A uniformly random permutation of ``range(count)``."""
        order = list(range(count))
        self._random.shuffle(order)
        return order

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        return self._random.sample(items, count)
