"""Unit coverage of the artifact cache: memo, facade, metrics."""

from __future__ import annotations

import pytest

from repro.cache import ArtifactCache, get_artifact_cache, reset_artifact_cache
from repro.cache.artifacts import resident_bytes
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts and ends with an empty process-wide cache."""
    reset_artifact_cache()
    yield
    reset_artifact_cache()


class TestMemo:
    def test_builds_once_then_hits(self, monkeypatch):
        """N same-part requests: one build (a miss), then N-1 hits that
        resolve no plan at all."""
        import repro.cache.artifacts as artifacts_module

        builds = []
        plans = []
        real_implement = artifacts_module.implement_plan
        real_plan = artifacts_module.plan_sacha_system

        def counting_implement(plan):
            builds.append(plan.device.name)
            return real_implement(plan)

        def counting_plan(*args, **kwargs):
            plans.append(args)
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(artifacts_module, "implement_plan", counting_implement)
        monkeypatch.setattr(artifacts_module, "plan_sacha_system", counting_plan)
        registry = MetricsRegistry(enabled=True)
        cache = ArtifactCache()
        with use_registry(registry):
            systems = [cache.get_system("SIM-SMALL") for _ in range(4)]
        assert builds == ["SIM-SMALL"]
        assert len(plans) == 1
        assert all(system is systems[0] for system in systems)
        assert registry.get("sacha_cache_misses_total").value(tier="memo") == 1
        assert registry.get("sacha_cache_hits_total").value(tier="memo") == 3
        assert cache.total_bytes() == resident_bytes(systems[0]) > 0


class TestFacade:
    def test_same_part_shares_one_system(self):
        cache = ArtifactCache()
        assert cache.get_system("SIM-SMALL") is cache.get_system("SIM-SMALL")

    def test_parts_are_kept_apart(self):
        cache = ArtifactCache()
        small = cache.get_system("SIM-SMALL")
        medium = cache.get_system("SIM-MEDIUM")
        assert small.device.name == "SIM-SMALL"
        assert medium.device.name == "SIM-MEDIUM"
        assert cache.total_bytes() == resident_bytes(small) + resident_bytes(medium)

    def test_metrics_count_tiers(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            cache = ArtifactCache()
            cache.get_system("SIM-SMALL")  # memo miss
            cache.get_system("SIM-SMALL")  # memo hit
            ArtifactCache().get_system("SIM-SMALL")  # fresh memo: miss
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
