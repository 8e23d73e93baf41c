"""Property tests: every AES backend computes the same MACs.

The fast paths are only admissible because they are byte-identical to
the reference model.  Hypothesis drives random keys, random frame
streams (including empty and non-frame-aligned chunks), and random
chunk splits through all available backends and both update styles.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.crypto.cmac import AesCmac, aes_cmac
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_MEDIUM
from repro.perf.backends import (
    _NATIVE_FOLD_SLICE_BYTES,
    available_backends,
    get_cipher,
    native_available,
)
from repro.perf.config import configured
from repro.utils.rng import DeterministicRng

BACKENDS = available_backends()

keys = st.binary(min_size=16, max_size=16)
frame_streams = st.lists(st.binary(min_size=0, max_size=700), max_size=8)


@settings(max_examples=50, deadline=None)
@given(key=keys, frames=frame_streams)
def test_backends_agree_on_frame_streams(key, frames):
    """Incremental MACs over the same stream agree across backends."""
    tags = set()
    for backend in BACKENDS:
        mac = AesCmac(key, backend=backend)
        for frame in frames:
            mac.update(frame)
        tags.add(mac.finalize())
    assert len(tags) == 1


@settings(max_examples=50, deadline=None)
@given(key=keys, frames=frame_streams)
def test_bulk_equals_incremental_per_backend(key, frames):
    """update_frames is byte-identical to per-frame update everywhere."""
    message = b"".join(frames)
    for backend in BACKENDS:
        bulk = AesCmac(key, backend=backend)
        bulk.update_frames(frames)
        assert bulk.finalize() == aes_cmac(key, message, backend=backend)


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16)
    | st.binary(min_size=24, max_size=24)
    | st.binary(min_size=32, max_size=32),
    block=st.binary(min_size=16, max_size=16),
)
def test_block_encryption_agrees(key, block):
    """Raw block encryption agrees for all AES key sizes."""
    outputs = {
        get_cipher(key, backend).encrypt_block(block) for backend in BACKENDS
    }
    assert len(outputs) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_fold_equals_block_chain(backend):
    """fold() is exactly the CBC-MAC chain of encrypt_block steps."""
    key = bytes(range(16))
    cipher = get_cipher(key, backend)
    buffer = bytes(range(250)) + bytes(70)  # 20 blocks, frame-sized
    state = bytes(16)
    folded = cipher.fold(bytes(16), buffer)
    for offset in range(0, len(buffer), 16):
        block = buffer[offset : offset + 16]
        state = cipher.encrypt_block(bytes(a ^ b for a, b in zip(state, block)))
    assert folded == state


# -- the native backend's streaming CBC chain ----------------------------------

needs_native = pytest.mark.skipif(
    not native_available(), reason="the native backend needs 'cryptography'"
)

#: One step of a fold program: advance chain 0 or 1 from its latest state,
#: branch from an older state, fold from an equal-valued copy of the
#: latest state, or encrypt a raw block between folds.
fold_steps = st.tuples(
    st.sampled_from(["advance", "branch", "copy", "encrypt"]),
    st.integers(min_value=0, max_value=1_000),
    st.binary(max_size=96),
)


@needs_native
@settings(max_examples=100, deadline=None)
@given(key=keys, steps=st.lists(fold_steps, max_size=24))
def test_native_stream_equals_table_under_any_fold_order(key, steps):
    """The streamed chain continues only from the state it last returned;
    every other state — a branch, the other chain, an equal copy — must
    give the same bytes as the stateless table backend."""
    native = get_cipher(key, "native")
    table = get_cipher(key, "table")
    heads = [(bytes(16), bytes(16)), (bytes(16), bytes(16))]
    history = list(heads)
    for kind, pick, data in steps:
        if kind == "encrypt":
            block = data[:16].ljust(16, b"\0")
            assert native.encrypt_block(block) == table.encrypt_block(block)
            continue
        blocks = data[: len(data) // 16 * 16]
        head = pick % 2
        native_state, table_state = (
            history[pick % len(history)] if kind == "branch" else heads[head]
        )
        if kind == "copy":
            native_state = bytes(bytearray(native_state))
        native_state = native.fold(native_state, memoryview(blocks))
        table_state = table.fold(table_state, blocks)
        assert native_state == table_state
        if kind != "branch":
            heads[head] = (native_state, table_state)
        history.append((native_state, table_state))


@needs_native
def test_native_fold_across_slices_equals_table():
    """A fold longer than the native backend's OpenSSL slice (a whole
    sweep is) chains across the slices exactly as the table backend, and
    the stream continues from the state it returned."""
    key = bytes(range(16))
    native = get_cipher(key, "native")
    table = get_cipher(key, "table")
    buffer = bytes(range(256)) * (2 * _NATIVE_FOLD_SLICE_BYTES // 256) + bytes(48)
    for data in (buffer, buffer[:_NATIVE_FOLD_SLICE_BYTES + 16]):
        native_state = native.fold(bytes(16), data)
        table_state = table.fold(bytes(16), data)
        assert native_state == table_state
        assert native.fold(native_state, data[:32]) == table.fold(
            table_state, data[:32]
        )


@needs_native
@settings(max_examples=100, deadline=None)
@given(
    key=keys,
    steps=st.lists(
        st.tuples(st.integers(0, 1), st.binary(max_size=700)), max_size=12
    ),
)
def test_interleaved_macs_agree_with_table(key, steps):
    """Two MACs under one key, updated in random interleaved chunks, tag
    exactly as the table backend and one-shot CMAC do."""
    tags = {}
    for backend in ("native", "table"):
        macs = (AesCmac(key, backend=backend), AesCmac(key, backend=backend))
        for which, chunk in steps:
            macs[which].update(chunk)
        tags[backend] = tuple(mac.finalize() for mac in macs)
    assert tags["native"] == tags["table"]
    for which in (0, 1):
        message = b"".join(chunk for index, chunk in steps if index == which)
        assert tags["native"][which] == aes_cmac(key, message, backend="table")


@needs_native
def test_sim_medium_attestation_tags_identical_across_backends():
    """A full SIM-MEDIUM protocol run tags byte-identically on the
    streamed native chain and on the table backend."""
    system = build_sacha_system(SIM_MEDIUM)
    results = {}
    for backend in ("native", "table"):
        with configured(aes_backend=backend):
            provisioned, record = provision_device(system, "prv-eq", seed=4243)
            verifier = SachaVerifier(
                record.system, record.mac_key, DeterministicRng(78)
            )
            results[backend] = run_attestation(
                provisioned.prover, verifier, DeterministicRng(6)
            )
    assert results["native"].report.accepted
    assert results["table"].report.accepted
    assert results["native"].tag == results["table"].tag
