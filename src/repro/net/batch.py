"""MTU-aware batch packing for the networked attestation session.

The paper's per-frame protocol moves one message per frame: 28,488
readback commands and 28,488 responses on a XC6VLX240T.  This module
sizes and builds the batched commands and responses the networked
session sends instead — each carrying as many frames as fit one
Ethernet payload after the ARQ layer's 9-byte framing — so the wire
path is bounded by throughput, not by per-message overhead.

Capacity math is explicit and testable: every helper takes the channel
MTU (``repro.net.ethernet.MAX_PAYLOAD`` by default) and subtracts the
ARQ and message headers, so changing either layer cannot silently
produce over-MTU frames.  Index vectors travel as packed big-endian
u32s; a whole configuration schedule is laid out by numpy, every batch
at once.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import WireFormatError
from repro.net.arq import ARQ_OVERHEAD_BYTES
from repro.net.ethernet import MAX_PAYLOAD
from repro.net.messages import (
    OPCODE_ICAP_CONFIG_BATCH,
    IcapReadbackBatchCommand,
    ReadbackBatchResponse,
)

#: opcode(1) + base_slot(4) + count(2)
READBACK_BATCH_HEADER_BYTES = 7
#: opcode(1) + count(2) ... + length(4); the per-frame cost adds 4 index bytes.
CONFIG_BATCH_HEADER_BYTES = 7
#: opcode(1) + base_slot(4) + count(2) + length(4)
BATCH_RESPONSE_HEADER_BYTES = 11


def arq_payload_capacity(max_payload: int = MAX_PAYLOAD) -> int:
    """Usable message bytes per Ethernet payload under the ARQ framing."""
    capacity = max_payload - ARQ_OVERHEAD_BYTES
    if capacity <= BATCH_RESPONSE_HEADER_BYTES:
        raise WireFormatError(
            f"MTU {max_payload} leaves no room for batch messages under "
            f"the {ARQ_OVERHEAD_BYTES}-byte ARQ framing"
        )
    return capacity


def max_readback_indices(max_payload: int = MAX_PAYLOAD) -> int:
    """Frame indices per ``IcapReadbackBatchCommand`` payload."""
    return (arq_payload_capacity(max_payload) - READBACK_BATCH_HEADER_BYTES) // 4


def frames_per_response_fragment(
    frame_bytes: int, max_payload: int = MAX_PAYLOAD
) -> int:
    """Frames per ``ReadbackBatchResponse`` fragment (at least 1)."""
    if frame_bytes <= 0:
        raise WireFormatError(f"frame size must be positive, got {frame_bytes}")
    capacity = arq_payload_capacity(max_payload) - BATCH_RESPONSE_HEADER_BYTES
    return max(1, capacity // frame_bytes)


def frames_per_config_batch(frame_bytes: int, max_payload: int = MAX_PAYLOAD) -> int:
    """Frames per ``IcapConfigBatchCommand`` (index + content per frame)."""
    if frame_bytes <= 0:
        raise WireFormatError(f"frame size must be positive, got {frame_bytes}")
    capacity = arq_payload_capacity(max_payload) - CONFIG_BATCH_HEADER_BYTES
    return max(1, capacity // (frame_bytes + 4))


def pack_readback_plan(
    plan: Sequence[int],
    batch_frames: int,
    max_payload: int = MAX_PAYLOAD,
) -> List[IcapReadbackBatchCommand]:
    """Split a readback plan into batch commands of ``batch_frames`` each.

    The requested batch size is clamped to what one payload can carry;
    ``base_slot`` tracks the plan position so the verifier can reassemble
    responses in plan order without echoed indices.
    """
    if batch_frames < 1:
        raise WireFormatError(f"batch size must be >= 1, got {batch_frames}")
    per_command = min(batch_frames, max_readback_indices(max_payload), 0xFFFF)
    indices = np.asarray(plan, dtype=np.int64)
    commands: List[IcapReadbackBatchCommand] = []
    for start in range(0, len(indices), per_command):
        chunk = indices[start : start + per_command]
        commands.append(
            IcapReadbackBatchCommand(
                base_slot=start,
                frame_indices=tuple(chunk.tolist()),
            )
        )
    return commands


def pack_config_commands(
    frame_indices: Sequence[int],
    frames: np.ndarray,
    max_payload: int = MAX_PAYLOAD,
) -> List[bytes]:
    """Encode a configuration schedule as MTU-sized ``ICAP_config_batch``
    payloads.

    ``frames`` holds one row of frame content per index, as an
    ``(n, frame_bytes)`` uint8 array.  Frame order is preserved exactly —
    configuration is order-sensitive (the nonce frames follow the
    application frames).  Each payload is byte-identical to
    :meth:`~repro.net.messages.IcapConfigBatchCommand.encode` of its
    chunk, but the whole schedule (26,400 frames in 6,600 payloads on a
    XC6VLX240T) is laid out by numpy in one pass instead of one message
    object per frame and per batch.
    """
    indices = np.asarray(frame_indices, dtype=np.int64)
    try:
        frames = np.asarray(frames, dtype=np.uint8)
    except ValueError:
        raise WireFormatError("config schedule needs equal-sized frames") from None
    if frames.ndim != 2 or len(frames) != len(indices):
        raise WireFormatError(
            f"config schedule needs one frame row per index: {len(indices)} "
            f"indices, frame array of shape {frames.shape}"
        )
    count, frame_bytes = frames.shape
    if not count:
        return []
    if int(indices.min()) < 0 or int(indices.max()) > 0xFFFFFFFF:
        raise WireFormatError("config schedule: frame index out of 32-bit range")
    per_batch = min(frames_per_config_batch(frame_bytes, max_payload), 0xFFFF)
    full = count - count % per_batch
    payloads: List[bytes] = []
    for start, stop in ((0, full), (full, count)):
        if stop == start:
            continue
        size = min(per_batch, stop - start)
        rows = _config_batch_rows(
            indices[start:stop].reshape(-1, size),
            frames[start:stop].reshape(-1, size * frame_bytes),
        )
        blob = rows.tobytes()
        width = rows.shape[1]
        payloads.extend(
            blob[offset : offset + width] for offset in range(0, len(blob), width)
        )
    return payloads


def _config_batch_rows(indices: np.ndarray, data: np.ndarray) -> np.ndarray:
    """One ``ICAP_config_batch`` payload per row, for equal-sized batches.

    Row layout: opcode(1) + count(2) + ``>u4`` indices + length(4) + data.
    """
    batches, per_batch = indices.shape
    data_bytes = data.shape[1]
    index_end = 3 + 4 * per_batch
    width = CONFIG_BATCH_HEADER_BYTES + 4 * per_batch + data_bytes
    rows = np.empty((batches, width), dtype=np.uint8)
    rows[:, 0] = OPCODE_ICAP_CONFIG_BATCH
    rows[:, 1:3] = np.frombuffer(per_batch.to_bytes(2, "big"), dtype=np.uint8)
    rows[:, 3:index_end] = indices.astype(">u4").view(np.uint8)
    rows[:, index_end : index_end + 4] = np.frombuffer(
        data_bytes.to_bytes(4, "big"), dtype=np.uint8
    )
    rows[:, index_end + 4 :] = data
    return rows


def fragment_readback_data(
    base_slot: int,
    data: bytes,
    frame_bytes: int,
    max_payload: int = MAX_PAYLOAD,
) -> List[ReadbackBatchResponse]:
    """Split one batch's readback buffer into MTU-sized response fragments.

    ``data`` is a zero-copy view candidate — fragments slice it without
    re-joining.  Fragment ``base_slot`` values continue the plan-position
    numbering of the command they answer.
    """
    if frame_bytes <= 0 or len(data) % frame_bytes:
        raise WireFormatError(
            f"readback buffer of {len(data)} bytes does not split into "
            f"{frame_bytes}-byte frames"
        )
    total_frames = len(data) // frame_bytes
    per_fragment = frames_per_response_fragment(frame_bytes, max_payload)
    view = memoryview(data)
    fragments: List[ReadbackBatchResponse] = []
    for start in range(0, total_frames, per_fragment):
        count = min(per_fragment, total_frames - start)
        fragments.append(
            ReadbackBatchResponse(
                base_slot=base_slot + start,
                frame_count=count,
                data=bytes(
                    view[start * frame_bytes : (start + count) * frame_bytes]
                ),
            )
        )
    return fragments


def contiguous_runs(indices: Sequence[int]) -> List[range]:
    """Maximal runs of consecutive frame indices.

    The default readback plan is an offset sweep — one or two contiguous
    runs per batch — so the prover can serve a batch with a handful of
    bulk ICAP range reads instead of per-frame gathers.  A plain loop:
    batches are at most a few hundred indices, below where numpy's
    set-up cost pays off.
    """
    runs: List[range] = []
    if not len(indices):
        return runs
    start = previous = indices[0]
    for index in indices[1:]:
        if index != previous + 1:
            runs.append(range(start, previous + 1))
            start = index
        previous = index
    runs.append(range(start, previous + 1))
    return runs
