"""The PUF's noisy read: one bulk draw against one draw per bit.

Every attestation re-derives the MAC key from a fresh, noisy read of the
SRAM PUF (Section 5.2.1): one uniform per response bit, 2,048 for the
default 256-byte response.  ``SramPuf.evaluate`` takes them from one
``DeterministicRng.uniforms`` call.  The reference leg draws them with
one ``random()`` call per bit, the loop the bulk draw replaced, and packs
the flips the same way; both legs return the same bytes.

``bench_gate.py`` compares the pair within one run (same machine, same
load): the production read must stay at least ``PUF_READ_SPEEDUP``
times faster than the per-draw reference.
"""

import numpy as np

from repro.fpga.puf import SramPuf
from repro.utils.rng import DeterministicRng

#: A default-sized PUF (256-byte response, 5 % read noise).
PUF = SramPuf(identity_seed=8100)
SEED = 4100


def per_draw_read(puf: SramPuf, rng: DeterministicRng) -> bytes:
    """One noisy read with one ``random()`` call per response bit."""
    draw = rng.random
    uniforms = np.array([draw() for _ in range(puf.response_bytes * 8)])
    flips = np.packbits(uniforms < puf.noise_rate, bitorder="little")
    return (np.frombuffer(puf.nominal_response(), dtype=np.uint8) ^ flips).tobytes()


def test_puf_read_bulk(benchmark):
    """The production read: ``SramPuf.evaluate``."""
    assert PUF.evaluate(DeterministicRng(SEED)) == per_draw_read(
        PUF, DeterministicRng(SEED)
    )
    benchmark(PUF.evaluate, DeterministicRng(SEED))


def test_puf_read_per_draw(benchmark):
    """The reference read the gate compares the production read with."""
    benchmark(per_draw_read, PUF, DeterministicRng(SEED))
