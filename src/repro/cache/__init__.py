"""Content-addressed, in-process cache of built attestation artifacts.

A SACHa system build — placement, register-bit derivation, Philox frame
content, golden template, combined ``Msk``, boot image — is a pure
function of the :class:`~repro.design.sacha_design.SystemPlan`, and a
fleet is mostly many devices of few parts.  This package therefore
memoizes builds by a canonical SHA-256 fingerprint of the plan in one
in-process map: N same-part devices in one sweep build once (one miss,
N-1 hits) and share one frozen, read-only bundle.

Only nonce- and key-independent state is cached.  Per-device mutable
state — board, PUF, live registers, prover, MAC keys — is rebuilt per
device by :func:`repro.core.provisioning.provision_device`; no secret
ever reaches this package.

``artifact_cache`` in :class:`repro.perf.config.ReproConfig` is the
master switch.  Hit/miss traffic lands on the ambient metrics registry
as ``sacha_cache_hits_total`` / ``sacha_cache_misses_total`` (labeled
``tier=memo``) plus the ``sacha_cache_bytes`` resident-size gauge.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cache.artifacts import (
    SystemArtifacts,
    build_artifacts,
    resolve_plan,
)
from repro.cache.fingerprint import plan_fingerprint
from repro.design.cores import CoreSpec
from repro.design.sacha_design import SachaSystemDesign
from repro.obs.metrics import get_registry
from repro.perf.config import get_config

__all__ = [
    "ArtifactCache",
    "SystemArtifacts",
    "get_artifact_cache",
    "plan_fingerprint",
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
        self._entries: Dict[str, SystemArtifacts] = {}

    def total_bytes(self) -> int:
        """Resident size of all memoized bundles."""
        return sum(entry.memory_bytes() for entry in self._entries.values())

    def get_artifacts(
        self,
        part: str,
        app_cores: Optional[Sequence[CoreSpec]] = None,
        include_dynamic_puf: bool = False,
    ) -> SystemArtifacts:
        """The shared build bundle for a part, through the memo.

        The first request for a plan builds it (a miss); every later one
        gets the same bundle (a hit).
        """
        config = get_config()
        if not config.artifact_cache:
            # Bypass: the cold baseline.  No memoization, no metrics.
            return build_artifacts(
                resolve_plan(
                    part,
                    app_cores=app_cores,
                    include_dynamic_puf=include_dynamic_puf,
                )
            )
        plan = resolve_plan(
            part, app_cores=app_cores, include_dynamic_puf=include_dynamic_puf
        )
        fingerprint = plan_fingerprint(plan)
        artifacts = self._entries.get(fingerprint)
        if artifacts is not None:
            _hits()
        else:
            artifacts = build_artifacts(plan, fingerprint)
            self._entries[fingerprint] = artifacts
            _misses()
        get_registry().gauge(
            "sacha_cache_bytes",
            "Resident bytes of memoized artifact bundles.",
        ).set(self.total_bytes())
        return artifacts

    def get_system(
        self,
        part: str,
        app_cores: Optional[Sequence[CoreSpec]] = None,
        include_dynamic_puf: bool = False,
    ) -> SachaSystemDesign:
        """The (frozen, shared) system design for a part."""
        return self.get_artifacts(
            part, app_cores=app_cores, include_dynamic_puf=include_dynamic_puf
        ).system


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
