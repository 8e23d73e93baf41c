"""Unit tests for the PUF model and fuzzy extractor."""

import dataclasses

import pytest

from repro.errors import PufError
from repro.fpga.puf import (
    FuzzyExtractor,
    SramPuf,
    enroll_device,
)
from repro.utils.bitops import hamming_distance
from repro.utils.rng import DeterministicRng


class TestSramPuf:
    def test_nominal_response_is_device_unique(self):
        a = SramPuf(identity_seed=1)
        b = SramPuf(identity_seed=2)
        assert a.nominal_response() != b.nominal_response()

    def test_same_seed_same_device(self):
        assert SramPuf(7).nominal_response() == SramPuf(7).nominal_response()

    def test_noise_rate_zero_is_stable(self, rng):
        puf = SramPuf(3, noise_rate=0.0)
        assert puf.evaluate(rng) == puf.nominal_response()

    def test_noise_flips_roughly_expected_fraction(self, rng):
        puf = SramPuf(3, response_bytes=512, noise_rate=0.1)
        noisy = puf.evaluate(rng)
        flips = hamming_distance(noisy, puf.nominal_response())
        expected = 512 * 8 * 0.1
        assert 0.5 * expected < flips < 1.5 * expected

    def test_bad_parameters(self):
        with pytest.raises(PufError):
            SramPuf(1, response_bytes=0)
        with pytest.raises(PufError):
            SramPuf(1, noise_rate=0.5)


class TestFuzzyExtractor:
    def test_reconstruction_under_noise(self):
        puf = SramPuf(11, noise_rate=0.05)
        extractor = FuzzyExtractor(repetition=9, key_bytes=16)
        helper = extractor.enroll(puf, DeterministicRng(1))
        secret_a = extractor.reconstruct(puf, helper, DeterministicRng(2))
        secret_b = extractor.reconstruct(puf, helper, DeterministicRng(3))
        assert secret_a == secret_b
        assert len(secret_a) == 16

    def test_wrong_device_fails(self):
        enrolled = SramPuf(11, noise_rate=0.0)
        impostor = SramPuf(12, noise_rate=0.0)
        extractor = FuzzyExtractor(repetition=9, key_bytes=16)
        helper = extractor.enroll(enrolled, DeterministicRng(1))
        with pytest.raises(PufError):
            extractor.reconstruct(impostor, helper, DeterministicRng(2))

    def test_excessive_noise_detected_not_silent(self):
        """When noise defeats the code, reconstruction raises instead of
        silently yielding a wrong key."""
        puf = SramPuf(11, noise_rate=0.45)
        extractor = FuzzyExtractor(repetition=3, key_bytes=16)
        helper = extractor.enroll(puf, DeterministicRng(1))
        with pytest.raises(PufError):
            extractor.reconstruct(puf, helper, DeterministicRng(2))

    def test_helper_data_leaks_no_key_bits_trivially(self):
        """The offset alone must not equal the codeword (it is blinded by
        the response)."""
        puf = SramPuf(11, noise_rate=0.0)
        extractor = FuzzyExtractor(repetition=9, key_bytes=16)
        helper = extractor.enroll(puf, DeterministicRng(1))
        secret = extractor.reconstruct(puf, helper, DeterministicRng(2))
        assert secret not in helper.offset

    def test_parameter_validation(self):
        with pytest.raises(PufError):
            FuzzyExtractor(repetition=4)  # even repetition has no majority
        with pytest.raises(PufError):
            FuzzyExtractor(repetition=9, key_bytes=0)

    def test_response_too_small(self):
        puf = SramPuf(11, response_bytes=8)
        extractor = FuzzyExtractor(repetition=9, key_bytes=16)
        with pytest.raises(PufError):
            extractor.enroll(puf, DeterministicRng(1))

    def test_short_puf_read_fails_closed(self):
        extractor = FuzzyExtractor(repetition=15, key_bytes=16)
        helper = extractor.enroll(SramPuf(11), DeterministicRng(1))
        with pytest.raises(PufError, match="PUF response of 64 bytes"):
            extractor.reconstruct(
                SramPuf(11, response_bytes=64), helper, DeterministicRng(2)
            )

    def test_short_helper_offset_fails_closed(self):
        puf = SramPuf(11)
        extractor = FuzzyExtractor(repetition=15, key_bytes=16)
        helper = extractor.enroll(puf, DeterministicRng(1))
        cut = dataclasses.replace(helper, offset=helper.offset[:100])
        with pytest.raises(PufError, match="helper offset of 100 bytes"):
            extractor.reconstruct(puf, cut, DeterministicRng(2))

    def test_helper_mismatch_rejected(self):
        puf = SramPuf(11)
        helper = FuzzyExtractor(repetition=9).enroll(puf, DeterministicRng(1))
        other = FuzzyExtractor(repetition=7)
        with pytest.raises(PufError):
            other.reconstruct(puf, helper, DeterministicRng(2))


class TestEnrollment:
    def test_enroll_device_key_is_stable(self):
        puf = SramPuf(21, noise_rate=0.05)
        key, slot = enroll_device(puf, DeterministicRng(5))
        assert len(key) == 16
        for attempt in range(3):
            assert slot.derive_key(puf, DeterministicRng(100 + attempt)) == key

    def test_independent_enrollments_different_keys(self):
        """Each enrollment draws fresh key material (code-offset: the key
        is enrollment randomness, bound to the device via helper data)."""
        key_a, _ = enroll_device(SramPuf(1), DeterministicRng(5))
        key_b, _ = enroll_device(SramPuf(2), DeterministicRng(6))
        assert key_a != key_b

    def test_clone_with_helper_data_cannot_derive(self):
        """Stealing the helper data does not yield the key without the
        silicon (Section 5.2.1: the key cannot be retrieved to clone the
        device)."""
        original = SramPuf(31, noise_rate=0.02)
        clone = SramPuf(32, noise_rate=0.02)
        key, slot = enroll_device(original, DeterministicRng(6))
        with pytest.raises(PufError):
            slot.derive_key(clone, DeterministicRng(7))
