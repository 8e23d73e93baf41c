"""PUF key material is byte-identical to the per-bit reference.

The PUF and the fuzzy extractor pack their bits with numpy.  The per-bit
loops they replaced live on here as the reference: a noisy read must
consume the same RNG stream in the same order (byte by byte, LSB first),
and enrollment and reconstruction must give the same helper data and
secret.  The pins fix the key material ``provision_device`` derives.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import get_artifact_cache
from repro.core.provisioning import provision_device
from repro.crypto.sha256 import sha256
from repro.errors import PufError
from repro.fpga.puf import FuzzyExtractor, HelperData, SramPuf
from repro.utils.rng import DeterministicRng


def _lsb_first_bits(data):
    for byte in data:
        for bit_index in range(8):
            yield (byte >> bit_index) & 1


def _pack_lsb_first(bits):
    out = bytearray()
    current = 0
    count = 0
    for bit in bits:
        current |= bit << count
        count += 1
        if count == 8:
            out.append(current)
            current = 0
            count = 0
    if count:
        out.append(current)
    return bytes(out)


def reference_evaluate(puf, rng):
    if puf.noise_rate == 0.0:
        return puf.nominal_response()
    noisy = bytearray(puf.nominal_response())
    for byte_index in range(len(noisy)):
        for bit_index in range(8):
            if rng.chance(puf.noise_rate):
                noisy[byte_index] ^= 1 << bit_index
    return bytes(noisy)


def reference_enroll(puf, rng, repetition, key_bytes):
    secret = rng.randbytes(key_bytes)
    codeword_bits = []
    for bit in _lsb_first_bits(secret):
        codeword_bits.extend([bit] * repetition)
    codeword = _pack_lsb_first(codeword_bits)
    response = puf.nominal_response()[: len(codeword)]
    return HelperData(
        repetition=repetition,
        key_bits=key_bytes * 8,
        offset=bytes(a ^ b for a, b in zip(codeword, response)),
        key_check=sha256(secret)[:8],
    )


def reference_vote(puf, helper, rng):
    """The majority-voted secret, before the ``key_check`` comparison."""
    response = reference_evaluate(puf, rng)[: len(helper.offset)]
    bits = list(_lsb_first_bits(bytes(a ^ b for a, b in zip(helper.offset, response))))
    repetition = helper.repetition
    secret_bits = []
    for start in range(0, helper.key_bits * repetition, repetition):
        group = bits[start : start + repetition]
        secret_bits.append(1 if sum(group) * 2 > repetition else 0)
    return _pack_lsb_first(secret_bits)


@given(
    identity=st.integers(0, 2**32 - 1),
    noise_rate=st.floats(0.0, 0.45, exclude_max=True),
    repetition=st.sampled_from([1, 3, 9, 15]),
    key_bytes=st.sampled_from([8, 16, 32]),
    spare_bytes=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_puf_matches_per_bit_reference(
    identity, noise_rate, repetition, key_bytes, spare_bytes, seed
):
    extractor = FuzzyExtractor(repetition=repetition, key_bytes=key_bytes)
    puf = SramPuf(
        identity,
        response_bytes=extractor.required_response_bytes + spare_bytes,
        noise_rate=noise_rate,
    )

    ported, reference = DeterministicRng(seed), DeterministicRng(seed)
    assert puf.evaluate(ported) == reference_evaluate(puf, reference)
    assert ported.random() == reference.random()

    helper = extractor.enroll(puf, DeterministicRng(seed))
    assert helper == reference_enroll(
        puf, DeterministicRng(seed), repetition, key_bytes
    )

    ported, reference = DeterministicRng(seed + 1), DeterministicRng(seed + 1)
    voted = reference_vote(puf, helper, reference)
    try:
        secret = extractor.reconstruct(puf, helper, ported)
    except PufError:
        assert sha256(voted)[:8] != helper.key_check
    else:
        assert secret == voted
    assert ported.random() == reference.random()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: SHA-256 of (enrolled key, helper offset, helper key_check) per
#: provisioning seed, captured from the per-bit implementation.  The part
#: does not enter the PUF or the enrollment RNG, so both parts share a row.
KEY_PINS = {
    8100: (
        "0cb7812b42bd43d3291b9930b4882f6a10309ad05c3bb7b22ab557bd40d996d2",
        "7c6452633b9359820e0dd51bdd611bcffcb855cae30f8b70ee67f457a2035a9f",
        "23845b157a89538c1a255d31b3858c3d799a513b489028fca5ccd7e368e5b323",
    ),
    9300: (
        "efd9f980ebccf0128e37c3204fdfee65eea1f494d9a2ebd16e71c9c2cdacdbfc",
        "538503d2dd6fa4f5978c4046210c54828d52b40e5f5103397cdfc66763d2f7aa",
        "6f1ce868d21c385d42ab3e8cc02f38152e96ff86f84f926f2970b0d9667bfbae",
    ),
}


@pytest.mark.parametrize("seed", sorted(KEY_PINS))
@pytest.mark.parametrize("part", ["SIM-SMALL", "SIM-MEDIUM"])
def test_provisioned_key_material_is_pinned(part, seed):
    provisioned, record = provision_device(
        get_artifact_cache().get_system(part), f"pin-{seed}", seed=seed
    )
    key_pin, offset_pin, check_pin = KEY_PINS[seed]
    helper = provisioned.key_slot.helper
    assert _digest(record.mac_key.reveal()) == key_pin
    assert _digest(helper.offset) == offset_pin
    assert _digest(helper.key_check) == check_pin
    # The first three per-attestation derivations reproduce the key.
    derived = [provisioned.key_provider.mac_key() for _ in range(3)]
    assert [_digest(key) for key in derived] == [key_pin] * 3
