"""Property: deferred absorption changes neither tags nor fold counts.

``AesCmac.update`` queues its input and folds the queue into the chain
once ``ABSORB_BYTES`` are pending, in ``update_frames`` and in
``finalize``.  CMAC does not depend on how its input is chunked, so any
split of a message into updates — empty chunks, chunks that straddle the
absorb point, mutable buffers reused right after their update, bulk
``update_frames`` calls, two MACs under one key fed in turn — must give
the one-shot tag.  The blocks folded must also stay what absorbing at
every update gave: every block of the message but the final one.

Runs on the platform's default backend, so the bare-install CI job runs
it on ``table``.
"""

import random
from itertools import zip_longest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import BLOCK_SIZE
from repro.crypto.cmac import ABSORB_BYTES, AesCmac, aes_cmac
from repro.obs.metrics import MetricsRegistry, set_registry

MAX_MESSAGE = 200 * 1024
KINDS = ("bytes", "bytearray", "memoryview", "frames")


def folded_blocks(length: int) -> int:
    """Blocks a chain absorbs for ``length`` bytes: all but the final one."""
    if length <= BLOCK_SIZE:
        return 0
    return (length - (length % BLOCK_SIZE or BLOCK_SIZE)) // BLOCK_SIZE


@st.composite
def chunked_messages(draw):
    length = draw(
        st.one_of(
            st.integers(0, 4 * BLOCK_SIZE),
            st.integers(0, MAX_MESSAGE),
            st.sampled_from(
                [ABSORB_BYTES - 1, ABSORB_BYTES, ABSORB_BYTES + 1, 2 * ABSORB_BYTES]
            ),
        )
    )
    message = random.Random(draw(st.integers(0, 2**32 - 1))).randbytes(length)
    cuts = sorted(draw(st.lists(st.integers(0, length), max_size=12)))
    bounds = [0, *cuts, length]
    chunks = [message[start:stop] for start, stop in zip(bounds, bounds[1:])]
    kinds = draw(
        st.lists(st.sampled_from(KINDS), min_size=len(chunks), max_size=len(chunks))
    )
    return message, list(zip(chunks, kinds))


def feed(mac: AesCmac, chunk: bytes, kind: str) -> None:
    if kind == "bytes":
        mac.update(chunk)
    elif kind == "frames":
        half = len(chunk) // 2
        mac.update_frames([memoryview(chunk)[:half], chunk[half:]])
    elif kind == "bytearray":
        buffer = bytearray(chunk)
        mac.update(buffer)
        buffer[:] = b"\xa5" * len(buffer)
        buffer.extend(b"reused")
    else:
        buffer = bytearray(chunk)
        with memoryview(buffer) as view:
            mac.update(view)
            view[:] = b"\x5a" * len(view)


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    first=chunked_messages(),
    second=chunked_messages(),
)
def test_any_chunking_gives_the_one_shot_tag_and_fold_count(key, first, second):
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        macs = (AesCmac(key), AesCmac(key))
        for pair in zip_longest(first[1], second[1]):
            for mac, step in zip(macs, pair):
                if step is not None:
                    feed(mac, *step)
        tags = [mac.finalize() for mac in macs]
    finally:
        set_registry(previous)
    assert tags == [aes_cmac(key, first[0]), aes_cmac(key, second[0])]
    counter = registry.counter(
        "sacha_mac_blocks_folded_total",
        "AES-CMAC blocks folded into chain state, by backend",
        labels=("backend",),
    )
    assert counter.value(backend=macs[0].backend) == folded_blocks(
        len(first[0])
    ) + folded_blocks(len(second[0]))


def test_updates_fold_only_at_the_absorb_point():
    """Frame-sized updates fold once per ABSORB_BYTES, not once per frame."""
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    frame = bytes(range(256)) + bytes(68)  # one 324-byte XC6VLX240T frame
    frames = ABSORB_BYTES // len(frame) + 1
    try:
        mac = AesCmac(bytes(16))
        for _ in range(frames - 1):
            mac.update(frame)
        assert registry.get("sacha_mac_blocks_folded_total") is None
        mac.update(frame)
        assert registry.get("sacha_mac_blocks_folded_total") is not None
        tag = mac.finalize()
    finally:
        set_registry(previous)
    assert tag == aes_cmac(bytes(16), frame * frames)
