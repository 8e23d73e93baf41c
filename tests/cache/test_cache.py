"""Unit coverage of the artifact cache: fingerprints, memo, facade."""

from __future__ import annotations

import threading

import pytest

from repro.cache import (
    ArtifactCache,
    get_artifact_cache,
    plan_fingerprint,
    reset_artifact_cache,
)
from repro.cache.artifacts import build_artifacts, resolve_plan
from repro.cache.memo import ArtifactMemo
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
    def test_builds_once_then_hits(self):
        memo = ArtifactMemo()
        plan = resolve_plan("SIM-SMALL")
        fingerprint = plan_fingerprint(plan)
        builds = []

        def build():
            builds.append(1)
            return build_artifacts(plan, fingerprint)

        first, hit_first = memo.get_or_build(fingerprint, build)
        second, hit_second = memo.get_or_build(fingerprint, build)
        assert (hit_first, hit_second) == (False, True)
        assert first is second
        assert len(builds) == 1
        assert len(memo) == 1
        assert memo.total_bytes() > 0

    def test_concurrent_misses_collapse_into_one_build(self):
        memo = ArtifactMemo()
        plan = resolve_plan("SIM-SMALL")
        fingerprint = plan_fingerprint(plan)
        builds = []
        results = []

        def build():
            builds.append(1)
            return build_artifacts(plan, fingerprint)

        def worker():
            results.append(memo.get_or_build(fingerprint, build)[0])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert all(result is results[0] for result in results)

    def test_clear_drops_everything(self):
        memo = ArtifactMemo()
        plan = resolve_plan("SIM-SMALL")
        memo.put(build_artifacts(plan))
        assert memo.clear() == 1
        assert len(memo) == 0
        assert memo.clear() == 0


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
        assert len(cache.memo) == 0

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
