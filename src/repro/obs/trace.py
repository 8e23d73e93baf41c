"""Trace ids for attestation attempts, and span-dump merging.

A *trace* ties together the spans of every party that worked on one
attestation attempt.  The trace id is not random: it is derived via
SHA-256 from the attempt's session nonce, so two runs with the same
seed produce byte-identical trace ids.  Every span opened while a
:func:`trace_context` is active records its ``trace_id`` and
``session`` (the recording party: ``"verifier"`` or a prover's device
id; see :mod:`repro.obs.spans`).  The networked session opens one
context per party inside the attempt's ``session_attempt`` span, so the
prover's command spans are children of that span in the one registry of
the run, and nothing about the trace travels on the wire.

The second half of this module is offline: :func:`merge_span_dumps`
reads several JSONL span dumps (one per run, or one run's dump split
across files) into one record list, re-basing span ids only where two
runs' ids would collide.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from repro.errors import ObservabilityError

#: Raw trace-id width on the wire; the textual form is its hex digest.
TRACE_ID_BYTES = 16

#: Domain-separation prefix for the nonce -> trace-id derivation.
_TRACE_DOMAIN = b"sacha-trace-v1:"


def trace_id_from_nonce(nonce: bytes) -> str:
    """The deterministic trace id of the attempt that drew ``nonce``.

    SHA-256 with a fixed domain prefix, truncated to
    :data:`TRACE_ID_BYTES`; returned as lowercase hex.  Deriving (not
    inventing) the id makes it reproducible from the seed.
    """
    digest = hashlib.sha256(_TRACE_DOMAIN + bytes(nonce)).digest()
    return digest[:TRACE_ID_BYTES].hex()


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The ambient trace of the current execution context.

    ``session`` names the party recording spans — ``"verifier"``, a
    prover's device id — and lands on every span record opened while
    the context is active.
    """

    trace_id: str
    session: str


_CURRENT_TRACE: contextvars.ContextVar[Optional[TraceContext]] = (
    contextvars.ContextVar("repro_obs_current_trace", default=None)
)


def current_trace() -> Optional[TraceContext]:
    """The active :class:`TraceContext`, if any."""
    return _CURRENT_TRACE.get()


@contextlib.contextmanager
def trace_context(trace_id: str, session: str) -> Iterator[TraceContext]:
    """Install a trace context for the duration of the ``with`` block."""
    context = TraceContext(trace_id=trace_id, session=session)
    token = _CURRENT_TRACE.set(context)
    try:
        yield context
    finally:
        _CURRENT_TRACE.reset(token)


# -- span-dump merging ---------------------------------------------------------


def span_records_from_jsonl(text: str):
    """Parse a span JSONL dump back into :class:`SpanRecord` objects.

    Non-span lines (the exporters interleave trace records in the same
    file format) are skipped.
    """
    from repro.obs.spans import SpanRecord

    records = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            fields = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"span dump line {line_number} is not valid JSON: {exc}"
            ) from exc
        if fields.get("record") != "span":
            continue
        records.append(
            SpanRecord(
                span_id=int(fields["span_id"]),
                parent_id=(
                    int(fields["parent_id"])
                    if fields.get("parent_id") is not None
                    else None
                ),
                name=str(fields["name"]),
                start_ns=float(fields["start_ns"]),
                end_ns=float(fields["end_ns"]),
                attributes=dict(fields.get("attributes", {})),
                status=str(fields.get("status", "ok")),
                error=str(fields.get("error", "")),
                trace_id=str(fields.get("trace_id", "")),
                session=str(fields.get("session", "")),
                events=list(fields.get("events", ())),
            )
        )
    return records


def load_span_dump(path: Union[str, Path]):
    """Read one span dump (JSON lines) from ``path``."""
    return span_records_from_jsonl(Path(path).read_text(encoding="utf-8"))


def merge_span_dumps(dumps: Sequence[Sequence["object"]]) -> List["object"]:
    """Merge several span dumps into one consistent record list.

    Two deterministic steps:

    1. **Re-base ids across runs** — a dump that shares a trace id with
       the dumps before it and reuses none of their span ids is another
       part of the same run (one run's dump split across files): its
       ids and parent links stay as recorded, so links that cross the
       split still resolve.  Any other dump comes from another run, and
       its ids and parent links shift past the highest id so far.
    2. **Sort** by ``(start_ns, span_id)`` so the output is independent
       of the order records appeared within each dump.

    The result is byte-stable: same dumps in, same list out.
    """
    merged: List["object"] = []
    seen_ids: set = set()
    seen_traces: set = set()
    for dump in dumps:
        ids = {record.span_id for record in dump}
        traces = {record.trace_id for record in dump if record.trace_id}
        offset = 0
        if ids & seen_ids or not traces & seen_traces:
            offset = max(seen_ids, default=0)
        for record in dump:
            merged.append(
                dataclasses.replace(
                    record,
                    span_id=record.span_id + offset,
                    parent_id=(
                        record.parent_id + offset
                        if record.parent_id is not None
                        else None
                    ),
                )
            )
        seen_ids.update(span_id + offset for span_id in ids)
        seen_traces |= traces
    merged.sort(key=lambda record: (record.start_ns, record.span_id))
    return merged


def trace_ids(spans: Sequence["object"]) -> List[str]:
    """The distinct non-empty trace ids present in ``spans``, sorted."""
    return sorted({record.trace_id for record in spans if record.trace_id})
