"""In-process memo of built attestation systems, keyed by part name.

A SACHa system build is a pure function of the device part, and a fleet
is mostly many devices of few parts.  :class:`ArtifactCache` therefore
keeps one dict from part name to the frozen
:class:`~repro.design.sacha_design.SachaSystemDesign`: N same-part
devices in one sweep build once (one miss, N-1 hits) and share one
read-only system.  A hit is a dict lookup; only a miss plans and
implements.

Only nonce- and key-independent state is cached.  Per-device mutable
state — board, PUF, live registers, prover, MAC keys — is rebuilt per
device by :func:`repro.core.provisioning.provision_device`; no secret
ever reaches this package.

Hit/miss traffic lands on the ambient metrics registry as
``sacha_cache_hits_total`` / ``sacha_cache_misses_total`` (labeled
``tier=memo``) plus the ``sacha_cache_bytes`` resident-size gauge.
"""

from __future__ import annotations

from typing import Dict

from repro.cache import artifacts
from repro.design.sacha_design import SachaSystemDesign
from repro.obs.metrics import get_registry

__all__ = [
    "ArtifactCache",
    "get_artifact_cache",
    "reset_artifact_cache",
]


def _hits() -> None:
    get_registry().counter(
        "sacha_cache_hits_total",
        "Artifact cache hits by tier.",
        labels=("tier",),
    ).inc(tier="memo")


def _misses() -> None:
    get_registry().counter(
        "sacha_cache_misses_total",
        "Artifact cache misses by tier.",
        labels=("tier",),
    ).inc(tier="memo")


class ArtifactCache:
    """The facade instrumented code materializes through."""

    def __init__(self) -> None:
        self._systems: Dict[str, SachaSystemDesign] = {}

    def total_bytes(self) -> int:
        """Resident size of all memoized systems."""
        return sum(
            artifacts.resident_bytes(system) for system in self._systems.values()
        )

    def get_system(self, part: str) -> SachaSystemDesign:
        """The (frozen, shared) system design for a part.

        The first request for a part builds it (a miss); every later one
        gets the same object (a hit).
        """
        system = self._systems.get(part)
        if system is not None:
            _hits()
        else:
            system = artifacts.build_system(part)
            self._systems[part] = system
            _misses()
        get_registry().gauge(
            "sacha_cache_bytes",
            "Resident bytes of memoized artifact bundles.",
        ).set(self.total_bytes())
        return system


#: The process-wide cache.
_CACHE = ArtifactCache()


def get_artifact_cache() -> ArtifactCache:
    """The process-wide artifact cache."""
    return _CACHE


def reset_artifact_cache() -> ArtifactCache:
    """Swap in a fresh, empty cache (tests, benchmark cold legs).

    Returns the new cache.  Callers reset between sweeps, not during one.
    """
    global _CACHE
    _CACHE = ArtifactCache()
    return _CACHE
