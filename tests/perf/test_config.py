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
        assert config.arq_adaptive is True

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            ReproConfig(aes_backend="quantum")

    def test_with_overrides(self):
        config = ReproConfig().with_overrides(aes_backend="table")
        assert config.aes_backend == "table"
        assert config.arq_window == ReproConfig().arq_window


class TestEnvironment:
    def test_backend_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AES_BACKEND", "reference")
        assert ReproConfig.from_env().aes_backend == "reference"

    def test_integer_env_parsed_and_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARQ_WINDOW", "4")
        assert ReproConfig.from_env().arq_window == 4
        monkeypatch.setenv("REPRO_ARQ_WINDOW", "many")
        with pytest.raises(ReproError, match="REPRO_ARQ_WINDOW"):
            ReproConfig.from_env()

    @pytest.mark.parametrize("token", sorted(_TRUTHY))
    def test_arq_adaptive_truthy(self, monkeypatch, token):
        monkeypatch.setenv("REPRO_ARQ_ADAPTIVE", token)
        assert ReproConfig.from_env().arq_adaptive is True

    @pytest.mark.parametrize("token", sorted(_FALSY))
    def test_arq_adaptive_falsy(self, monkeypatch, token):
        monkeypatch.setenv("REPRO_ARQ_ADAPTIVE", token)
        assert ReproConfig.from_env().arq_adaptive is False

    def test_arq_adaptive_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARQ_ADAPTIVE", "0")
        assert ReproConfig.from_env().arq_adaptive is False
        monkeypatch.setenv("REPRO_ARQ_ADAPTIVE", "yes")
        assert ReproConfig.from_env().arq_adaptive is True

    def test_arq_adaptive_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARQ_ADAPTIVE", "sometimes")
        with pytest.raises(ReproError):
            ReproConfig.from_env()


class TestProcessGlobal:
    def test_set_and_get(self):
        set_config(ReproConfig(aes_backend="table"))
        assert get_config().aes_backend == "table"

    def test_configured_scopes_override(self):
        set_config(ReproConfig(aes_backend="reference"))
        with configured(aes_backend="table", arq_window=2):
            assert get_config().aes_backend == "table"
            assert get_config().arq_window == 2
        assert get_config().aes_backend == "reference"
        assert get_config().arq_window == 8

    def test_configured_restores_on_error(self):
        set_config(ReproConfig())
        with pytest.raises(RuntimeError):
            with configured(aes_backend="table"):
                raise RuntimeError("boom")
        assert get_config().aes_backend == "auto"
