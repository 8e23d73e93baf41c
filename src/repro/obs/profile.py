"""Span profiling: critical paths, self-time breakdowns, flamegraphs.

Everything here is a pure function over :class:`SpanRecord` sequences,
so it works identically on a live registry's spans and on merged
span dumps (see :mod:`repro.obs.trace`).  All orderings are
deterministic — ties break on ``(start_ns, span_id)`` — so reports and
flamegraph exports are byte-stable for a given span set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.spans import SpanRecord, span_tree


def phase_breakdown(spans: Sequence[SpanRecord]) -> List[Dict[str, object]]:
    """Per-span-name totals: count, total time, self time, child time.

    *Self time* is a span's duration minus the time covered by its
    direct children (clamped at zero, for dumps whose children
    overhang their parent).  Rows are sorted by
    descending self time, then name, so the hottest phase leads.
    """
    children_ns: Dict[int, float] = {}
    for record in spans:
        if record.parent_id is not None:
            children_ns[record.parent_id] = (
                children_ns.get(record.parent_id, 0.0) + record.duration_ns
            )
    rows: Dict[str, Dict[str, object]] = {}
    for record in spans:
        row = rows.setdefault(
            record.name,
            {"name": record.name, "count": 0, "total_ns": 0.0, "self_ns": 0.0},
        )
        row["count"] += 1
        row["total_ns"] += record.duration_ns
        row["self_ns"] += max(
            0.0, record.duration_ns - children_ns.get(record.span_id, 0.0)
        )
    for row in rows.values():
        row["child_ns"] = row["total_ns"] - row["self_ns"]
    return sorted(
        rows.values(), key=lambda row: (-row["self_ns"], row["name"])
    )


def critical_path(spans: Sequence[SpanRecord]) -> List[SpanRecord]:
    """The chain of spans that bounds the trace's wall time.

    From the longest root downwards, repeatedly descend into the
    longest child (ties broken by ``(start_ns, span_id)``).  This is the
    sequence an optimisation pass must shorten to shorten the run.
    """

    def longest(nodes: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
        best = None
        for node in nodes:
            record: SpanRecord = node["span"]
            rank = (-record.duration_ns, record.start_ns, record.span_id)
            if best is None or rank < best[0]:
                best = (rank, node)
        return best[1] if best else None

    path: List[SpanRecord] = []
    node = longest(span_tree(list(spans)))
    while node is not None:
        path.append(node["span"])
        node = longest(node["children"])
    return path


def to_collapsed_stacks(spans: Sequence[SpanRecord]) -> str:
    """Collapsed-stack flamegraph lines: ``root;child;leaf <self_ns>``.

    The format consumed by ``flamegraph.pl`` and importable by
    speedscope.  One line per distinct stack, weighted by integer self
    time in nanoseconds; zero-weight stacks are dropped.  Lines are
    sorted, so the export is byte-stable.
    """
    weights: Dict[str, int] = {}

    def walk(node: Dict[str, object], prefix: str) -> None:
        record: SpanRecord = node["span"]
        stack = f"{prefix};{record.name}" if prefix else record.name
        child_ns = 0.0
        for child in sorted(
            node["children"],
            key=lambda item: (item["span"].start_ns, item["span"].span_id),
        ):
            child_ns += child["span"].duration_ns
            walk(child, stack)
        self_ns = int(max(0.0, record.duration_ns - child_ns))
        if self_ns > 0:
            weights[stack] = weights.get(stack, 0) + self_ns

    for root in span_tree(list(spans)):
        walk(root, "")
    return "".join(
        f"{stack} {weight}\n" for stack, weight in sorted(weights.items())
    )


def arq_timeline(spans: Sequence[SpanRecord]) -> List[Dict[str, object]]:
    """Every ARQ span event, flattened and time-ordered.

    The ARQ layer attaches ``arq.send`` / ``arq.ack`` /
    ``arq.retransmit`` / ``arq.give_up`` events — plus the AIMD window
    moves ``arq.cwnd_halve`` / ``arq.cwnd_grow`` — to the enclosing
    span (see ``repro.net.arq``); this collects them across a whole
    trace with the owning span named, so a faulty exchange can be
    replayed exchange by exchange.
    """
    timeline: List[Dict[str, object]] = []
    for record in sorted(spans, key=lambda item: (item.start_ns, item.span_id)):
        for event in record.events:
            if not str(event.get("name", "")).startswith("arq."):
                continue
            entry = dict(event)
            entry["span"] = record.name
            entry["session"] = record.session
            timeline.append(entry)
    timeline.sort(key=lambda entry: (float(entry.get("t_ns", 0.0))))
    return timeline


def _format_ns(value: float) -> str:
    return f"{value:,.0f} ns"


def render_report(spans: Sequence[SpanRecord]) -> str:
    """A human-readable profile: tree, breakdown, critical path, ARQ."""
    from repro.obs.spans import render_span_tree
    from repro.obs.trace import trace_ids

    spans = sorted(spans, key=lambda record: (record.start_ns, record.span_id))
    sections: List[str] = []
    ids = trace_ids(spans)
    if ids:
        sections.append("Traces: " + ", ".join(ids))
    sections.append("Span tree:\n" + render_span_tree(spans))

    rows = phase_breakdown(spans)
    if rows:
        lines = [
            f"{'phase':<24} {'count':>5} {'total':>16} "
            f"{'self':>16} {'child':>16}"
        ]
        for row in rows:
            lines.append(
                f"{row['name']:<24} {row['count']:>5} "
                f"{_format_ns(row['total_ns']):>16} "
                f"{_format_ns(row['self_ns']):>16} "
                f"{_format_ns(row['child_ns']):>16}"
            )
        sections.append("Phase breakdown (by self time):\n" + "\n".join(lines))

    path = critical_path(spans)
    if path:
        sections.append(
            "Critical path: "
            + " -> ".join(
                f"{record.name} ({_format_ns(record.duration_ns)})"
                for record in path
            )
        )

    events = arq_timeline(spans)
    if events:
        lines = []
        for event in events:
            extras = " ".join(
                f"{key}={value}"
                for key, value in sorted(event.items())
                if key not in {"name", "t_ns", "span", "session"}
            )
            origin = (
                f"{event['session']}/{event['span']}"
                if event.get("session")
                else str(event["span"])
            )
            lines.append(
                f"{float(event['t_ns']):>14,.0f}  {event['name']:<16} "
                f"{origin}" + (f"  {extras}" if extras else "")
            )
        sections.append(f"ARQ timeline ({len(events)} events):\n" + "\n".join(lines))

    return "\n\n".join(sections) + "\n"
