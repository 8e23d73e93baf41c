"""Metric instruments and the registry that owns them.

Three instrument kinds, modelled on the Prometheus data model:

* :class:`Counter` — a monotonically increasing total, optionally split
  by labels (``sacha_attestations_total{result="accept"}``);
* :class:`Gauge` — a value that can go up and down (detection latency,
  fleet size);
* :class:`Histogram` — fixed-bucket value distributions (phase
  durations).  Buckets are fixed at creation; there is no wall-clock
  dependence anywhere — every duration observed comes from the
  simulation clock.

A :class:`MetricsRegistry` owns the instruments plus the finished span
records (see :mod:`repro.obs.spans`).  A *disabled* registry hands out
shared no-op instruments and drops spans, so instrumented library code
pays one attribute check per run when observability is off.

The process-wide active registry is reached through
:func:`get_registry` / :func:`set_registry`; it starts disabled, so
importing :mod:`repro` never starts collecting anything.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ObservabilityError


#: Default duration buckets in *seconds*: from microseconds (single
#: protocol actions at simulation scale) to minutes (a full XC6VLX240T
#: sweep on the lab network takes 28.5 s).
DEFAULT_DURATION_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    120.0,
)


def _label_key(
    label_names: Tuple[str, ...], labels: Mapping[str, str]
) -> Tuple[str, ...]:
    # Hot path: build the key directly and let a length/name mismatch
    # fall through to the error, instead of allocating comparison sets
    # on every single increment.
    if len(labels) == len(label_names):
        try:
            return tuple(str(labels[name]) for name in label_names)
        except KeyError:
            pass
    raise ObservabilityError(
        f"expected labels {sorted(label_names)}, got {sorted(labels)}"
    )


class Counter:
    """A labeled monotonic counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0.0)

    def samples(self) -> Iterator[Tuple[Dict[str, str], float]]:
        """(labels, value) pairs in deterministic (sorted) order."""
        for key in sorted(self._values):
            yield dict(zip(self.label_names, key)), self._values[key]

    def merge_from(self, other: "Counter") -> None:
        """Add ``other``'s totals into this counter, series by series."""
        _check_mergeable(self, other)
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value


class Gauge:
    """A labeled value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(self.label_names, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0.0)

    def samples(self) -> Iterator[Tuple[Dict[str, str], float]]:
        for key in sorted(self._values):
            yield dict(zip(self.label_names, key)), self._values[key]

    def merge_from(self, other: "Gauge") -> None:
        """Sum ``other``'s series into this gauge.

        Merged gauges are additive contributions (per-run tallies); for
        last-writer-wins semantics, set the gauge on the merged registry
        after merging instead.
        """
        _check_mergeable(self, other)
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, bucket_count: int) -> None:
        self.bucket_counts = [0] * bucket_count
        self.sum = 0.0
        self.count = 0


class Histogram:
    """A labeled fixed-bucket histogram.

    ``buckets`` are ascending upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  Exposition follows the Prometheus cumulative
    ``_bucket``/``_sum``/``_count`` convention.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ObservabilityError(
                f"histogram {name} buckets must be strictly ascending: {bounds}"
            )
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self.buckets = bounds
        self._series: Dict[Tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[index] += 1
                break
        series.sum += value
        series.count += 1

    def count(self, **labels: str) -> int:
        series = self._series.get(_label_key(self.label_names, labels))
        return series.count if series else 0

    def sum(self, **labels: str) -> float:
        series = self._series.get(_label_key(self.label_names, labels))
        return series.sum if series else 0.0

    def cumulative_buckets(
        self, **labels: str
    ) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, +Inf last."""
        series = self._series.get(_label_key(self.label_names, labels))
        counts = series.bucket_counts if series else [0] * len(self.buckets)
        total = series.count if series else 0
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative.append((bound, running))
        cumulative.append((float("inf"), total))
        return cumulative

    def samples(self) -> Iterator[Tuple[Dict[str, str], _HistogramSeries]]:
        for key in sorted(self._series):
            yield dict(zip(self.label_names, key)), self._series[key]

    def merge_from(self, other: "Histogram") -> None:
        """Bucket-wise merge: per-bucket counts, sums, and totals add."""
        _check_mergeable(self, other)
        if other.buckets != self.buckets:
            raise ObservabilityError(
                f"histogram {self.name} bucket mismatch: "
                f"{self.buckets} vs {other.buckets}"
            )
        for key, series in other._series.items():
            self._merge_series(key, series.bucket_counts, series.sum, series.count)

    def _merge_series(
        self,
        key: Tuple[str, ...],
        bucket_counts: Sequence[int],
        sum_value: float,
        count: int,
    ) -> None:
        if len(bucket_counts) != len(self.buckets):
            raise ObservabilityError(
                f"histogram {self.name} expects {len(self.buckets)} "
                f"bucket counts, got {len(bucket_counts)}"
            )
        target = self._series.get(key)
        if target is None:
            target = self._series[key] = _HistogramSeries(len(self.buckets))
        for index, bucket_count in enumerate(bucket_counts):
            target.bucket_counts[index] += bucket_count
        target.sum += sum_value
        target.count += count


def _check_mergeable(target, source) -> None:
    if source.kind != target.kind:
        raise ObservabilityError(
            f"cannot merge {source.kind} {source.name} into "
            f"{target.kind} {target.name}"
        )
    if source.name != target.name:
        raise ObservabilityError(
            f"cannot merge metric {source.name} into {target.name}"
        )
    if source.label_names != target.label_names:
        raise ObservabilityError(
            f"metric {target.name} label mismatch: "
            f"{target.label_names} vs {source.label_names}"
        )


class _NoOpInstrument:
    """Shared sink handed out by a disabled registry."""

    kind = "noop"
    name = ""
    label_names: Tuple[str, ...] = ()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def set(self, value: float, **labels: str) -> None:
        pass

    def observe(self, value: float, **labels: str) -> None:
        pass

    def value(self, **labels: str) -> float:
        return 0.0


_NOOP = _NoOpInstrument()


class MetricsRegistry:
    """Owns instruments and span records for one collection scope."""

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._instruments: Dict[str, object] = {}
        self._spans: List[object] = []
        self._span_id = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        """Drop every instrument and span (tests, per-bench snapshots)."""
        self._instruments.clear()
        self._spans.clear()
        self._span_id = 0

    # -- instrument factories ----------------------------------------------

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        if not self._enabled:
            return _NOOP
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObservabilityError(
                    f"metric {name} already registered as "
                    f"{existing.kind}, requested {cls.kind}"
                )
            if tuple(labels) != existing.label_names:
                raise ObservabilityError(
                    f"metric {name} already registered with labels "
                    f"{existing.label_names}, requested {tuple(labels)}"
                )
            return existing
        instrument = cls(name, help, labels, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- introspection -----------------------------------------------------

    def instruments(self) -> List[object]:
        """Registered instruments sorted by name."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    def get(self, name: str) -> Optional[object]:
        return self._instruments.get(name)

    # -- span storage (written by repro.obs.spans) -------------------------

    def next_span_id(self) -> int:
        self._span_id += 1
        return self._span_id

    def record_span(self, record: object) -> None:
        if self._enabled:
            self._spans.append(record)

    @property
    def spans(self) -> Tuple[object, ...]:
        return tuple(self._spans)


#: The process-wide registry.  Starts disabled: importing repro collects
#: nothing until a CLI flag, a test fixture, or an embedding application
#: swaps in an enabled registry.
_ACTIVE = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The active registry (instrumented code fetches it per run)."""
    return _ACTIVE


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry):
    """Temporarily install ``registry`` (sweeps, tests, scoped collection)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
