"""In-process memo tier: one build per fingerprint, shared by all workers.

Shard workers hitting the same part serialize on one lock and the first
arrival pays for the build; everyone else gets the already-frozen bundle.
Building *under* the lock is deliberate: it makes hit/miss counts a pure
function of the device list — one miss plus N-1 hits for N same-part
devices — regardless of worker count, which the determinism tests pin.
SACHA007 discipline: every write to guarded state happens with the lock
held.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Tuple

from repro.cache.artifacts import SystemArtifacts


class ArtifactMemo:
    """Lock-guarded fingerprint -> :class:`SystemArtifacts` map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, SystemArtifacts] = {}

    def get_or_build(
        self, fingerprint: str, build: Callable[[], SystemArtifacts]
    ) -> Tuple[SystemArtifacts, bool]:
        """The memoized bundle, plus whether this call was a hit.

        ``build`` runs with the lock held, so concurrent misses for one
        fingerprint collapse into a single build that every waiter then
        shares.
        """
        with self._lock:
            cached = self._entries.get(fingerprint)
            if cached is not None:
                return cached, True
            built = build()
            self._entries[fingerprint] = built
            return built, False

    def put(self, artifacts: SystemArtifacts) -> None:
        with self._lock:
            self._entries[artifacts.fingerprint] = artifacts

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            return count

    def entries(self) -> List[SystemArtifacts]:
        """A stable snapshot of the current bundles (insertion order)."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def total_bytes(self) -> int:
        """Resident size of all memoized bundles."""
        return sum(entry.memory_bytes() for entry in self.entries())
