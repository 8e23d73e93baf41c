"""SHA-256 wrapper tests: FIPS vectors, agreement with ``hashlib`` at the
padding boundaries, and the incremental interface (chained ``update``,
non-destructive ``digest``)."""

import hashlib

import pytest

from repro.crypto.sha256 import Sha256, sha256


class TestKnownVectors:
    def test_empty(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha256(message).hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )


class TestAgainstHashlib:
    @pytest.mark.parametrize(
        "length", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000]
    )
    def test_padding_boundaries(self, length):
        message = bytes(i % 256 for i in range(length))
        assert sha256(message) == hashlib.sha256(message).digest()


class TestIncremental:
    def test_chunked_equals_oneshot(self):
        message = b"0123456789" * 100
        hasher = Sha256()
        for start in range(0, len(message), 37):
            hasher.update(message[start : start + 37])
        assert hasher.digest() == sha256(message)

    def test_digest_is_nondestructive(self):
        hasher = Sha256().update(b"part one")
        first = hasher.digest()
        assert hasher.digest() == first
        hasher.update(b" part two")
        assert hasher.digest() == sha256(b"part one part two")

    def test_hexdigest(self):
        assert Sha256().update(b"abc").hexdigest() == sha256(b"abc").hex()
