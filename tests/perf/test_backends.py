"""Backend registry: resolution rules, fold_frames, obs counters."""

import pytest

from repro.crypto.cmac import AesCmac
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.perf import configured, set_config
from repro.perf.backends import (
    available_backends,
    fold_frames,
    get_cipher,
    native_available,
    resolve_backend_name,
)

KEY = bytes(range(16))


@pytest.fixture(autouse=True)
def _reset_config():
    yield
    set_config(None)


class TestResolution:
    def test_reference_and_table_always_available(self):
        assert {"reference", "table"} <= set(available_backends())

    def test_explicit_names_resolve_to_themselves(self):
        assert resolve_backend_name("reference") == "reference"
        assert resolve_backend_name("table") == "table"

    def test_auto_prefers_native_else_table(self):
        expected = "native" if native_available() else "table"
        # Both follow the process config, which REPRO_AES_BACKEND may pin.
        with configured(aes_backend="auto"):
            assert resolve_backend_name("auto") == expected
            assert resolve_backend_name(None) == expected

    def test_none_follows_process_config(self):
        with configured(aes_backend="reference"):
            assert resolve_backend_name(None) == "reference"

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError):
            resolve_backend_name("quantum")

    def test_cipher_reports_its_name(self):
        for backend in available_backends():
            assert get_cipher(KEY, backend).name == backend


class TestFoldFrames:
    @pytest.mark.parametrize("backend", available_backends())
    def test_tail_is_never_empty_after_data(self, backend):
        cipher = get_cipher(KEY, backend)
        state, tail = fold_frames(cipher, bytes(16), b"", [b"\xaa" * 32])
        # The final block must stay buffered for subkey treatment.
        assert len(tail) == 16

    @pytest.mark.parametrize("backend", available_backends())
    def test_equivalent_to_incremental(self, backend):
        frames = [bytes([i]) * 324 for i in range(4)]
        bulk = AesCmac(KEY, backend=backend).update_frames(frames)
        step = AesCmac(KEY, backend=backend)
        for frame in frames:
            step.update(frame)
        assert bulk.finalize() == step.finalize()

    @pytest.mark.parametrize("backend", available_backends())
    def test_short_input_stays_buffered(self, backend):
        cipher = get_cipher(KEY, backend)
        state, tail = fold_frames(cipher, bytes(16), b"ab", [b"cd"])
        assert state == bytes(16)
        assert bytes(tail) == b"abcd"


class TestObservability:
    def test_fold_counts_blocks_by_backend(self):
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            cipher = get_cipher(KEY, "table")
            cipher.fold(bytes(16), bytes(64))
        finally:
            set_registry(previous)
        counter = registry.counter(
            "sacha_mac_blocks_folded_total",
            "AES-CMAC blocks folded, by cipher backend",
            labels=("backend",),
        )
        assert counter.value(backend="table") == 4
