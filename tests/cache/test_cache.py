"""Unit coverage of the artifact cache: fingerprints, memo, facade."""

from __future__ import annotations

import pytest

from repro.cache import (
    ArtifactCache,
    get_artifact_cache,
    plan_fingerprint,
    reset_artifact_cache,
)
from repro.cache.artifacts import resolve_plan
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.perf.config import configured


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts and ends with an empty process-wide cache."""
    reset_artifact_cache()
    yield
    reset_artifact_cache()


class TestFingerprint:
    def test_stable_across_replanning(self):
        assert plan_fingerprint(resolve_plan("SIM-SMALL")) == plan_fingerprint(
            resolve_plan("SIM-SMALL")
        )

    def test_distinguishes_parts(self):
        assert plan_fingerprint(resolve_plan("SIM-SMALL")) != plan_fingerprint(
            resolve_plan("SIM-MEDIUM")
        )

    def test_sensitive_to_nonce_width(self):
        import dataclasses

        plan = resolve_plan("SIM-SMALL")
        widened = dataclasses.replace(plan, nonce_bytes=16)
        assert plan_fingerprint(plan) != plan_fingerprint(widened)

    def test_is_hex_sha256(self):
        fingerprint = plan_fingerprint(resolve_plan("SIM-SMALL"))
        assert len(fingerprint) == 64
        int(fingerprint, 16)


class TestMemo:
    def test_builds_once_then_hits(self, monkeypatch):
        """N same-part requests: one build (a miss), then N-1 hits."""
        import repro.cache as cache_module

        builds = []
        real_build = cache_module.build_artifacts

        def counting_build(plan, fingerprint=""):
            builds.append(fingerprint)
            return real_build(plan, fingerprint)

        monkeypatch.setattr(cache_module, "build_artifacts", counting_build)
        registry = MetricsRegistry(enabled=True)
        cache = ArtifactCache()
        with use_registry(registry):
            bundles = [cache.get_artifacts("SIM-SMALL") for _ in range(4)]
        assert builds == [plan_fingerprint(resolve_plan("SIM-SMALL"))]
        assert all(bundle is bundles[0] for bundle in bundles)
        assert registry.get("sacha_cache_misses_total").value(tier="memo") == 1
        assert registry.get("sacha_cache_hits_total").value(tier="memo") == 3
        assert cache.total_bytes() == bundles[0].memory_bytes() > 0


class TestFacade:
    def test_same_part_shares_one_system(self):
        cache = ArtifactCache()
        assert cache.get_system("SIM-SMALL") is cache.get_system("SIM-SMALL")

    def test_bypass_builds_fresh_objects(self):
        cache = ArtifactCache()
        with configured(artifact_cache=False):
            first = cache.get_system("SIM-SMALL")
            second = cache.get_system("SIM-SMALL")
        assert first is not second
        assert cache.total_bytes() == 0

    def test_metrics_count_tiers(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            cache = ArtifactCache()
            cache.get_artifacts("SIM-SMALL")  # memo miss
            cache.get_artifacts("SIM-SMALL")  # memo hit
            ArtifactCache().get_artifacts("SIM-SMALL")  # fresh memo: miss
        hits = registry.get("sacha_cache_hits_total")
        misses = registry.get("sacha_cache_misses_total")
        assert misses.value(tier="memo") == 2
        assert hits.value(tier="memo") == 1
        assert registry.get("sacha_cache_bytes").value() > 0

    def test_process_wide_accessor_resets(self):
        first = get_artifact_cache()
        assert get_artifact_cache() is first
        second = reset_artifact_cache()
        assert second is not first
        assert get_artifact_cache() is second
