"""Observability: metrics, spans, traces, aggregation, health.

``repro.obs`` is the measurement substrate for every attestation run:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters, gauges and fixed-bucket histograms;
* :mod:`repro.obs.spans` — ``span("readback", frame=idx)`` context
  managers that nest via ``contextvars`` and timestamp from the
  simulation clock;
* :mod:`repro.obs.trace` — nonce-derived trace ids, and merging of
  several span dumps into one record list;
* :mod:`repro.obs.aggregate` — exact registry merging and snapshot
  restore for offline fleet roll-ups;
* :mod:`repro.obs.profile` — critical-path extraction, self-time
  breakdowns, and collapsed-stack flamegraph export;
* :mod:`repro.obs.health` — declarative SLO rules over snapshots
  producing an OK/WARN/CRIT :class:`HealthReport`;
* :mod:`repro.obs.exporters` — Prometheus text exposition and JSON-lines
  logs, deterministic for golden tests;
* :mod:`repro.obs.log` — structured event logging for library modules.

The active registry starts *disabled*: all instruments are shared
no-ops and spans vanish, so un-instrumented callers pay (almost)
nothing.  Enable collection for a scope with::

    from repro import obs

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        report = quick_attestation()
        print(obs.to_prometheus(registry))
        print(obs.render_span_tree(registry.spans))
"""

from repro.obs import log
from repro.obs.aggregate import (
    merge_registries,
    merge_snapshots,
    registry_from_snapshot,
)
from repro.obs.exporters import (
    registry_snapshot,
    spans_to_jsonl,
    to_jsonl,
    to_prometheus,
    write_jsonl,
    write_prometheus,
)
from repro.obs.health import (
    DEFAULT_RULES,
    HealthReport,
    HealthStatus,
    MetricSelector,
    QuantileRule,
    RatioRule,
    RuleResult,
    evaluate_health,
    health_exit_code,
)
from repro.obs.metrics import (
    DEFAULT_DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.profile import (
    arq_timeline,
    critical_path,
    phase_breakdown,
    render_report,
    to_collapsed_stacks,
)
from repro.obs.spans import (
    SpanRecord,
    current_span,
    render_span_tree,
    span,
    span_tree,
)
from repro.obs.trace import (
    TraceContext,
    current_trace,
    load_span_dump,
    merge_span_dumps,
    span_records_from_jsonl,
    trace_context,
    trace_id_from_nonce,
    trace_ids,
)

__all__ = [
    "log",
    "DEFAULT_DURATION_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "SpanRecord",
    "current_span",
    "span",
    "span_tree",
    "render_span_tree",
    "registry_snapshot",
    "spans_to_jsonl",
    "to_jsonl",
    "to_prometheus",
    "write_jsonl",
    "write_prometheus",
    "TraceContext",
    "current_trace",
    "trace_context",
    "trace_id_from_nonce",
    "trace_ids",
    "span_records_from_jsonl",
    "load_span_dump",
    "merge_span_dumps",
    "merge_registries",
    "merge_snapshots",
    "registry_from_snapshot",
    "arq_timeline",
    "critical_path",
    "phase_breakdown",
    "render_report",
    "to_collapsed_stacks",
    "DEFAULT_RULES",
    "HealthReport",
    "HealthStatus",
    "MetricSelector",
    "QuantileRule",
    "RatioRule",
    "RuleResult",
    "evaluate_health",
    "health_exit_code",
]
