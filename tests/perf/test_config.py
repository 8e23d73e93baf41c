"""ReproConfig: validation, environment parsing, process-global scope."""

import pytest

from repro.errors import ReproError
from repro.perf import ReproConfig, configured, get_config, set_config
from repro.perf.config import _FALSY, _TRUTHY


@pytest.fixture(autouse=True)
def _reset_config():
    yield
    set_config(None)


class TestValidation:
    def test_defaults(self):
        config = ReproConfig()
        assert config.aes_backend == "auto"
        assert config.artifact_cache is True

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            ReproConfig(aes_backend="quantum")

    def test_with_overrides(self):
        config = ReproConfig().with_overrides(aes_backend="table")
        assert config.aes_backend == "table"
        assert config.artifact_cache == ReproConfig().artifact_cache


class TestEnvironment:
    def test_backend_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AES_BACKEND", "reference")
        assert ReproConfig.from_env().aes_backend == "reference"

    @pytest.mark.parametrize("token", sorted(_TRUTHY))
    def test_artifact_cache_truthy(self, monkeypatch, token):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", token)
        assert ReproConfig.from_env().artifact_cache is True

    @pytest.mark.parametrize("token", sorted(_FALSY))
    def test_artifact_cache_falsy(self, monkeypatch, token):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", token)
        assert ReproConfig.from_env().artifact_cache is False

    def test_artifact_cache_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "sometimes")
        with pytest.raises(ReproError, match="REPRO_ARTIFACT_CACHE"):
            ReproConfig.from_env()


class TestProcessGlobal:
    def test_set_and_get(self):
        set_config(ReproConfig(aes_backend="table"))
        assert get_config().aes_backend == "table"

    def test_configured_scopes_override(self):
        set_config(ReproConfig(aes_backend="reference"))
        with configured(aes_backend="table", artifact_cache=False):
            assert get_config().aes_backend == "table"
            assert get_config().artifact_cache is False
        assert get_config().aes_backend == "reference"
        assert get_config().artifact_cache is True

    def test_configured_restores_on_error(self):
        set_config(ReproConfig())
        with pytest.raises(RuntimeError):
            with configured(aes_backend="table"):
                raise RuntimeError("boom")
        assert get_config().aes_backend == "auto"
