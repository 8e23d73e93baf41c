"""Registry aggregation: merging registries and restoring snapshots.

:func:`merge_registries` folds several registries into one, exactly:

* counters and gauges sum per label set;
* histograms merge bucket-wise (per-bucket counts, sums, totals add);
* span records concatenate in source order, ids as recorded.

:func:`registry_from_snapshot` is the inverse of
``repro.obs.exporters.registry_snapshot``: it rebuilds a live registry
from the plain-dict form, so snapshots written by different runs can be
merged offline (fleet roll-ups such as ``repro obs health A.json
B.json``) and fed to the health engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def merge_registries(
    sources: Sequence[MetricsRegistry],
    into: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Merge ``sources`` into ``into`` (or a fresh enabled registry).

    Instruments are created on the target on first sight with the
    source's metadata; subsequent sources must agree on kind, labels,
    and (for histograms) bucket bounds.  Merge order is the order of
    ``sources``.
    """
    target = into if into is not None else MetricsRegistry(enabled=True)
    if not target.enabled:
        raise ObservabilityError("cannot merge into a disabled registry")
    for source in sources:
        for instrument in source.instruments():
            if isinstance(instrument, Counter):
                mine = target.counter(
                    instrument.name, instrument.help, instrument.label_names
                )
            elif isinstance(instrument, Gauge):
                mine = target.gauge(
                    instrument.name, instrument.help, instrument.label_names
                )
            elif isinstance(instrument, Histogram):
                mine = target.histogram(
                    instrument.name,
                    instrument.help,
                    instrument.label_names,
                    buckets=instrument.buckets,
                )
            else:  # pragma: no cover - registries only hold the three kinds
                raise ObservabilityError(
                    f"cannot merge instrument kind {instrument.kind!r}"
                )
            mine.merge_from(instrument)
        for record in source.spans:
            target.record_span(record)
    return target


def registry_from_snapshot(snapshot: Mapping[str, Mapping]) -> MetricsRegistry:
    """Rebuild a live registry from a ``registry_snapshot`` dict."""
    registry = MetricsRegistry(enabled=True)
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family.get("kind")
        label_names = tuple(family.get("label_names", ()))
        help_text = str(family.get("help", ""))
        samples = family.get("samples", ())
        if kind == "counter":
            counter = registry.counter(name, help_text, label_names)
            for sample in samples:
                counter.inc(float(sample["value"]), **sample["labels"])
        elif kind == "gauge":
            gauge = registry.gauge(name, help_text, label_names)
            for sample in samples:
                gauge.set(float(sample["value"]), **sample["labels"])
        elif kind == "histogram":
            if "buckets" not in family:
                raise ObservabilityError(
                    f"snapshot of histogram {name} has no bucket bounds; "
                    "re-export it with a current registry_snapshot"
                )
            histogram = registry.histogram(
                name, help_text, label_names, buckets=family["buckets"]
            )
            for sample in samples:
                if "bucket_counts" not in sample:
                    raise ObservabilityError(
                        f"snapshot of histogram {name} has no bucket_counts; "
                        "re-export it with a current registry_snapshot"
                    )
                key = tuple(
                    str(sample["labels"][label]) for label in label_names
                )
                histogram._merge_series(
                    key,
                    [int(count) for count in sample["bucket_counts"]],
                    float(sample["sum"]),
                    int(sample["count"]),
                )
        else:
            raise ObservabilityError(
                f"snapshot family {name} has unknown kind {kind!r}"
            )
    return registry


def merge_snapshots(
    snapshots: Iterable[Mapping[str, Mapping]],
) -> MetricsRegistry:
    """Restore and merge several snapshot dicts (offline fleet roll-up)."""
    return merge_registries(
        [registry_from_snapshot(snapshot) for snapshot in snapshots]
    )


def rollup_snapshot_by_label(
    snapshot: Mapping[str, Mapping], name: str, label: str
) -> Dict[str, float]:
    """Per-``label``-value totals of family ``name`` in a plain snapshot.

    Other labels are summed away — e.g. roll
    ``sacha_swarm_member_verdicts_total{device_id,verdict}`` up by
    ``verdict`` for a fleet-wide verdict distribution.  It works on the
    dict form (``registry_snapshot`` output, or a sweep snapshot the
    fleet store persisted) without rebuilding a live registry, so ops
    surfaces like ``repro fleet status`` can summarize stored telemetry
    cheaply.  Histogram families total observation counts.  An absent
    family rolls up to ``{}``; a family without ``label`` raises.
    """
    family = snapshot.get(name)
    if family is None:
        return {}
    label_names = tuple(family.get("label_names", ()))
    if label not in label_names:
        raise ObservabilityError(
            f"snapshot family {name} has labels {label_names}, not {label!r}"
        )
    totals: Dict[str, float] = {}
    for sample in family.get("samples", ()):
        key = str(sample.get("labels", {}).get(label))
        if "value" in sample:
            value = float(sample["value"])
        else:  # histogram family: total the observation counts
            value = float(sample.get("count", 0))
        totals[key] = totals.get(key, 0.0) + value
    return dict(sorted(totals.items()))
