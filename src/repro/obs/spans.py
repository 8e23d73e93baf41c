"""Structured spans over the simulation clock.

A span brackets one phase of work — ``span("readback", frame=idx)`` —
and nests through ``contextvars``: spans opened inside an open span
become its children, so one attestation run yields a
``attestation → config / readback / checksum`` tree without any caller
threading parent handles around.

Timestamps come from whatever clock the caller supplies (the protocol
passes its simulation-time accumulator); there is deliberately no
``time.time()`` fallback, so span logs are bit-for-bit reproducible.

A span is one :class:`SpanRecord`: ``span(...)`` builds it on entry,
yields it for attributes and events, finishes it on exit and stores
that same object in the active
:class:`~repro.obs.metrics.MetricsRegistry`.  When the registry is
disabled, ``span(...)`` is a no-op context manager.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import current_trace

Clock = Callable[[], float]


def _no_clock() -> float:
    return 0.0


@dataclass
class SpanRecord:
    """One span: open inside its ``with span(...)`` block, then finished."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: float
    end_ns: float
    attributes: Dict[str, object] = field(default_factory=dict)
    status: str = "ok"  # "ok" | "error"
    error: str = ""
    trace_id: str = ""
    session: str = ""
    events: List[Dict[str, object]] = field(default_factory=list)
    #: Stamps the events of an open span; reset when the span finishes,
    #: so a stored record keeps no reference to its clock's owner.
    _clock: Clock = field(default=_no_clock, init=False, repr=False, compare=False)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: object) -> None:
        """Append a timestamped point event (ARQ send/ack/retransmit)."""
        event: Dict[str, object] = {"name": name, "t_ns": self._clock()}
        event.update(attributes)
        self.events.append(event)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "record": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "status": self.status,
        }
        if self.error:
            record["error"] = self.error
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.trace_id:
            record["trace_id"] = self.trace_id
        if self.session:
            record["session"] = self.session
        if self.events:
            record["events"] = [dict(event) for event in self.events]
        return record


_CURRENT: contextvars.ContextVar[Optional[SpanRecord]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> Optional[SpanRecord]:
    """The innermost open span of this context, if any."""
    return _CURRENT.get()


@contextlib.contextmanager
def span(
    name: str,
    clock: Optional[Clock] = None,
    registry: Optional[MetricsRegistry] = None,
    **attributes: object,
) -> Iterator[Optional[SpanRecord]]:
    """Open a span named ``name`` until the ``with`` block exits.

    ``clock`` is a zero-argument callable returning the current
    simulation time in nanoseconds; without one the span records 0.0
    (pure-structure tracing).  An exception inside the block marks the
    span ``status="error"`` (with the exception repr) and re-raises.

    If a :func:`~repro.obs.trace.trace_context` is active, the record
    carries its ``trace_id``/``session``.
    """
    registry = registry or get_registry()
    if not registry.enabled:
        yield None
        return
    now = clock or _no_clock
    parent = _CURRENT.get()
    trace = current_trace()
    span_id = registry.next_span_id()
    start_ns = now()
    record = SpanRecord(
        span_id,
        parent.span_id if parent is not None else None,
        name,
        start_ns,
        start_ns,
        attributes,
        trace_id=trace.trace_id if trace else "",
        session=trace.session if trace else "",
    )
    record._clock = now
    token = _CURRENT.set(record)
    try:
        yield record
    except BaseException as exc:
        record.status = "error"
        record.error = repr(exc)
        raise
    finally:
        _CURRENT.reset(token)
        record.end_ns = now()
        record._clock = _no_clock
        registry.record_span(record)


def span_tree(spans: Sequence[SpanRecord]) -> List[Dict[str, object]]:
    """Nest flat records into a forest of ``{record, children}`` dicts."""
    nodes: Dict[int, Dict[str, object]] = {
        record.span_id: {"span": record, "children": []} for record in spans
    }
    roots: List[Dict[str, object]] = []
    for record in spans:
        node = nodes[record.span_id]
        parent = nodes.get(record.parent_id) if record.parent_id else None
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots


def render_span_tree(spans: Sequence[SpanRecord]) -> str:
    """Indented one-line-per-span rendering of the forest."""
    lines: List[str] = []

    def walk(node: Dict[str, object], depth: int) -> None:
        record: SpanRecord = node["span"]
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(record.attributes.items())
        )
        flag = "" if record.status == "ok" else f" [{record.status}]"
        lines.append(
            f"{'  ' * depth}{record.name}"
            f" ({record.duration_ns:,.0f} ns){flag}"
            + (f" {attrs}" if attrs else "")
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in span_tree(spans):
        walk(root, 0)
    return "\n".join(lines)
