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

T = TypeVar("T")


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
