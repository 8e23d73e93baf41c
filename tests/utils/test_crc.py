"""Unit tests for the two CRC variants.

``XilinxBitstreamCrc`` folds its records with numpy; the byte-at-a-time
loop it replaced lives on here as the reference, and a known-answer
vector (captured from that loop) pins the absolute value.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.crc import Crc32, XilinxBitstreamCrc, crc32

CASTAGNOLI_REFLECTED = 0x82F63B78


def _reference_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ CASTAGNOLI_REFLECTED if crc & 1 else crc >> 1
        table.append(crc)
    return table


REFERENCE_TABLE = _reference_table()


def reference_feed(state, register, word):
    """The byte-at-a-time fold of one (word ‖ register) record."""
    for byte in word.to_bytes(4, "big") + bytes([register]):
        state = (state >> 8) ^ REFERENCE_TABLE[(state ^ byte) & 0xFF]
    return state


class TestCrc32:
    def test_matches_zlib(self):
        for message in (b"", b"123456789", b"hello world" * 50):
            assert crc32(message) == zlib.crc32(message)

    def test_check_value(self):
        # The classic CRC-32 check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926

    def test_incremental_equals_oneshot(self):
        crc = Crc32()
        crc.update(b"hello ").update(b"world")
        assert crc.digest() == crc32(b"hello world")

    def test_digest_bytes_little_endian(self):
        value = crc32(b"abc")
        assert Crc32().update(b"abc").digest_bytes() == value.to_bytes(4, "little")

    def test_sensitive_to_single_bit(self):
        assert crc32(b"\x00\x00") != crc32(b"\x00\x01")


class TestXilinxBitstreamCrc:
    def test_covers_register_address(self):
        a = XilinxBitstreamCrc()
        b = XilinxBitstreamCrc()
        a.feed(2, 0xDEADBEEF)
        b.feed(3, 0xDEADBEEF)
        assert a.digest() != b.digest()

    def test_check_resets(self):
        crc = XilinxBitstreamCrc()
        crc.feed(1, 0x1234)
        expected = crc.digest()
        assert crc.check(expected)
        assert crc.digest() == 0

    def test_check_failure_also_resets(self):
        crc = XilinxBitstreamCrc()
        crc.feed(1, 0x1234)
        assert not crc.check(0xBAD)
        assert crc.digest() == 0

    def test_feed_words(self):
        a = XilinxBitstreamCrc()
        a.feed_words(2, [1, 2, 3])
        b = XilinxBitstreamCrc()
        for word in (1, 2, 3):
            b.feed(2, word)
        assert a.digest() == b.digest()

    def test_register_range(self):
        with pytest.raises(ValueError):
            XilinxBitstreamCrc().feed(32, 0)

    def test_known_answer(self):
        crc = XilinxBitstreamCrc()
        for register, word in [(2, 0xDEADBEEF), (4, 7), (1, 0), (12, 0xFFFFFFFF)]:
            crc.feed(register, word)
        assert crc.digest() == 0x8B0DD125

    def test_known_answer_matches_reference(self):
        state = 0
        for register, word in [(2, 0xDEADBEEF), (4, 7), (1, 0), (12, 0xFFFFFFFF)]:
            state = reference_feed(state, register, word)
        assert state == 0x8B0DD125

    def test_numpy_words_and_checks(self):
        words = np.array([0, 0xFFFFFFFF, 0x12345678], dtype=np.uint32)
        crc = XilinxBitstreamCrc()
        crc.feed_words(2, words)
        state = 0
        for word in words.tolist():
            state = reference_feed(state, 2, word)
        assert crc.check(np.uint32(state)) is True
        assert crc.digest() == 0


_RECORDS = st.lists(
    st.tuples(st.integers(0, 31), st.integers(0, 2**32 - 1)), max_size=300
)


@given(
    records=_RECORDS,
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_crc_matches_byte_at_a_time_reference(records, data):
    """Any split into ``feed``/``feed_words`` calls, with ``digest``,
    ``check`` and ``reset`` in between, gives the reference's values."""
    crc = XilinxBitstreamCrc()
    state = 0
    position = 0
    while position < len(records):
        size = data.draw(st.integers(1, 80), label="size")
        chunk = records[position : position + size]
        position += len(chunk)
        register = chunk[0][0]
        if data.draw(st.booleans(), label="as words"):
            # One register per feed_words call: reuse the chunk's first.
            words = [word for _, word in chunk]
            as_array = data.draw(st.booleans(), label="as array")
            crc.feed_words(
                register, np.array(words, dtype=np.uint32) if as_array else words
            )
            for word in words:
                state = reference_feed(state, register, word)
        else:
            for chunk_register, word in chunk:
                crc.feed(chunk_register, word)
                state = reference_feed(state, chunk_register, word)
        action = data.draw(
            st.sampled_from(["none", "digest", "check", "reset"]), label="action"
        )
        if action == "digest":
            assert crc.digest() == state
        elif action == "check":
            expected = state if data.draw(st.booleans(), label="match") else state ^ 1
            assert crc.check(expected) == (expected == state)
            state = 0
        elif action == "reset":
            crc.reset()
            state = 0
    assert crc.digest() == state
