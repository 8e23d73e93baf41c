"""Backend registry: resolution rules, fold_frames, obs counters."""

import os
import subprocess
import sys

import pytest

from repro.crypto.cmac import AesCmac
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.perf.backends import (
    available_backends,
    fold_frames,
    get_cipher,
    native_available,
    resolve_backend_name,
)

KEY = bytes(range(16))


class TestResolution:
    def test_reference_and_table_always_available(self):
        assert {"reference", "table"} <= set(available_backends())

    def test_explicit_names_resolve_to_themselves(self):
        assert resolve_backend_name("reference") == "reference"
        assert resolve_backend_name("table") == "table"

    def test_auto_prefers_native_else_table(self):
        expected = "native" if native_available() else "table"
        assert resolve_backend_name("auto") == expected
        assert resolve_backend_name(None) == expected

    def test_without_cryptography_the_default_is_table(self):
        """On a platform where ``cryptography`` does not import, the
        default backend is ``table`` and still computes RFC 4493 tags."""
        script = (
            "import sys\n"
            "sys.modules['cryptography'] = None\n"
            "from repro.crypto.cmac import AesCmac\n"
            "from repro.perf.backends import resolve_backend_name\n"
            "mac = AesCmac(bytes.fromhex('2b7e151628aed2a6abf7158809cf4f3c'))\n"
            "mac.update(bytes.fromhex('6bc1bee22e409f96e93d7e117393172a'))\n"
            "print(resolve_backend_name(), mac.backend, mac.finalize().hex())\n"
        )
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH", "")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert completed.stdout.split() == [
            "table", "table", "070a16b46b4d4144f79bdd9dd04a287c"
        ]

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
