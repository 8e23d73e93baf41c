"""Outside-in wall-clock layer tracer for the end-to-end benchmark.

Only a traced run installs it.  :meth:`Tracer.install` replaces each
layer's public entry points -- a class method, or a module-level name
in the module whose code looks it up -- with a wrapper that records one
span per call: ``(span id, parent id, name, start, end, measures)``.
Spans nest through a :mod:`contextvars` parent pointer, so a span
opened inside another becomes its child, also inside the worker
threads of a sharded fleet sweep (``map_sharded`` copies the context).

A span's *self* time is its duration minus the part of it that its
children cover.  Children that overlap -- the per-device tasks of a
two-worker sweep, which share one interpreter lock -- have their
subtrees scaled by ``covered / sum of child durations``, so
concurrent threads split the wall time they overlap in and the self
times of one op always add up to that op's wall time.

Every time is host wall-clock from :func:`repro.obs.wallclock.perf_counter_s`,
never the simulation clock.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import itertools
import resource
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.spans import SpanRecord
from repro.obs.wallclock import perf_counter_s

#: One finished span: (span id, parent id, name, start s, end s, measures).
Record = Tuple[int, Optional[int], str, float, float, Optional[Tuple[float, ...]]]
Measure = Callable[[tuple, object], Tuple[float, ...]]
Prepare = Callable[["Tracer", tuple], tuple]


def _listify_arg1(tracer: "Tracer", args: tuple) -> tuple:
    """Materialize a generator argument so the wrapper can count it."""
    return (args[0], list(args[1])) + args[2:]


def _shard_tasks(tracer: "Tracer", args: tuple) -> tuple:
    """Run each ``map_sharded`` call as a ``swarm.task`` span.

    The task span also records the thread's CPU time, which is what
    ``swarm.parallel_efficiency`` compares with the sweep's wall time.
    """
    fn = args[0]

    def task(index: int) -> object:
        return tracer.call("swarm.task", fn, (index,), {}, thread_cpu=True)

    return (task,) + args[1:]


def _session_outcome(args: tuple, result: object) -> Tuple[float, ...]:
    session = args[0]
    return (
        session.total_retransmissions,
        result.attempts,
        session.undecodable_frames + session.unexpected_frames,
    )


#: (module, attribute path, span name, measure, argument preparation).
#: The attribute path names the object where the *caller* looks the
#: function up, so module-level names are patched in the importing
#: module (``repro.core.net_session.decode_response``), methods on the
#: class.
PATCHES: Tuple[Tuple[str, str, str, Optional[Measure], Optional[Prepare]], ...] = (
    ("repro.sim.events", "Simulator.run", "sim.run", None, None),
    ("repro.net.channel", "Channel.transmit", "net.transmit",
     lambda a, r: (a[2].wire_bytes(),), None),
    ("repro.net.channel", "Endpoint.deliver", "net.deliver", None, None),
    ("repro.net.arq", "ArqLink.send", "arq.send", lambda a, r: (1,), None),
    ("repro.net.arq", "ArqLink.send_many", "arq.send",
     lambda a, r: (len(a[1]),), _listify_arg1),
    ("repro.core.net_session", "decode_command", "msg.decode_command", None, None),
    ("repro.core.net_session", "decode_response", "msg.decode_response", None, None),
    ("repro.core.net_session", "pack_config_commands", "batch.pack", None, None),
    ("repro.core.net_session", "pack_readback_plan", "batch.pack", None, None),
    ("repro.core.prover", "fragment_readback_data", "batch.fragment", None, None),
    ("repro.net.faults", "FaultModel.perturb", "faults.perturb", None, None),
    ("repro.core.net_session", "NetworkAttestationSession.run", "session.run",
     _session_outcome, None),
    ("repro.core.protocol", "run_attestation", "protocol.run_attestation",
     None, None),
    ("repro.core.prover", "SachaProver.handle_command", "prover.handle_command",
     None, None),
    ("repro.core.verifier", "SachaVerifier.config_commands",
     "verifier.config_commands", None, None),
    ("repro.core.verifier", "SachaVerifier.readback_plan",
     "verifier.readback_plan", None, None),
    ("repro.core.verifier", "SachaVerifier.evaluate", "verifier.evaluate",
     None, None),
    ("repro.fpga.icap", "Icap.write_frame", "icap.write",
     lambda a, r: (1, len(a[2])), None),
    ("repro.fpga.icap", "Icap.write_frames", "icap.write",
     lambda a, r: (len(a[1]), len(a[2])), None),
    ("repro.fpga.icap", "Icap.readback_frame", "icap.readback",
     lambda a, r: (1, len(r)), None),
    ("repro.fpga.icap", "Icap.readback_range", "icap.readback",
     lambda a, r: (a[2], len(r)), None),
    ("repro.crypto.cmac", "AesCmac.update", "cmac.update",
     lambda a, r: (len(a[1]),), None),
    ("repro.crypto.cmac", "AesCmac.update_frames", "cmac.update",
     lambda a, r: (sum(map(len, a[1])),), _listify_arg1),
    ("repro.crypto.cmac", "AesCmac.finalize", "cmac.finalize", None, None),
    ("repro.crypto.sha256", "Sha256.update", "sha256.digest", None, None),
    ("repro.crypto.sha256", "Sha256.digest", "sha256.digest", None, None),
    ("repro.core.provisioning", "enroll_device", "puf.enroll", None, None),
    ("repro.fpga.puf", "PufKeySlot.derive_key", "puf.derive_key", None, None),
    ("repro.core.provisioning", "materialize_device", "provision.materialize",
     None, None),
    ("repro.fleet.controller", "materialize_device", "provision.materialize",
     None, None),
    ("repro.core.provisioning", "provision_device", "provision.device",
     None, None),
    ("repro.cache", "ArtifactCache.get_system", "cache.get_system", None, None),
    ("repro.cache.artifacts", "implement_plan", "design.implement_plan",
     None, None),
    ("repro.fleet.controller", "FleetController.attest", "fleet.attest",
     None, None),
    ("repro.fleet.controller", "map_sharded", "swarm.map_sharded",
     None, _shard_tasks),
    ("repro.fleet.store", "FleetStore.record_attestation",
     "store.record_attestation", None, None),
    ("repro.fleet.store", "FleetStore.begin_sweep", "store.sweep", None, None),
    ("repro.fleet.store", "FleetStore.finish_sweep", "store.sweep", None, None),
    ("repro.fleet.store", "FleetStore.select_for_attestation", "store.sweep",
     None, None),
    ("repro.fleet.store", "FleetStore.enroll", "store.enroll", None, None),
    ("repro.fleet.controller", "registry_snapshot", "obs.snapshot", None, None),
    ("repro.core.swarm", "merge_registries", "obs.merge", None, None),
)

#: Names of the values each span's measure tuple carries.
MEASURES: Dict[str, Tuple[str, ...]] = {
    "net.transmit": ("net.wire_bytes",),
    "arq.send": ("arq.payloads",),
    "session.run": (
        "arq.retransmissions",
        "session.attempts",
        "session.dropped_frames",
    ),
    "icap.write": ("icap.write.frames", "icap.write.bytes"),
    "icap.readback": ("icap.readback.frames", "icap.readback.bytes"),
    "cmac.update": ("cmac.bytes",),
    "swarm.task": ("swarm.task_cpu_s",),
}

#: Spans reported per op as ``<name>.self_ms`` and ``<name>.calls``.
#: ``op`` is the root of each op: its self time is the harness
#: remainder that no layer span covers.
SPANS: Tuple[str, ...] = ("op",) + tuple(
    dict.fromkeys(patch[2] for patch in PATCHES)
) + ("swarm.task",)

#: Spans reported as ``<name>.setup_ms`` (self time during set-up).
SETUP_SPANS: Tuple[str, ...] = (
    "setup",
    "cache.get_system",
    "design.implement_plan",
    "provision.materialize",
    "provision.device",
    "puf.enroll",
    "puf.derive_key",
    "sha256.digest",
    "store.enroll",
)


def _thread_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    return usage.ru_utime + usage.ru_stime


class Summary:
    """Per-span-name totals over one or more traced ops."""

    def __init__(self) -> None:
        #: name -> [calls, self seconds, total seconds] (concurrency-weighted)
        self.spans: Dict[str, List[float]] = {}
        self.measures: Dict[str, float] = {}
        self.self_s = 0.0
        self.events = 0

    def add(self, other: "Summary") -> None:
        for name, (calls, own, total) in other.spans.items():
            row = self.spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += own
            row[2] += total
        for name, value in other.measures.items():
            self.measures[name] = self.measures.get(name, 0.0) + value
        self.self_s += other.self_s
        self.events += other.events

    def calls(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def total_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]


def _covered(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    covered = 0.0
    run_start = run_end = low
    for start, end in sorted(intervals):
        start, end = max(start, low), min(end, high)
        if end <= start:
            continue
        if start > run_end:
            covered += run_end - run_start
            run_start = start
        run_end = max(run_end, end)
    return covered + run_end - run_start


def summarize(records: Sequence[Record], events: int = 0) -> Summary:
    """Self and total time per span name for one op's (or set-up's) spans."""
    by_id = {record[0]: record for record in records}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, start, end, _ in records:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    covered: Dict[int, float] = {}
    scale: Dict[int, float] = {}
    for parent, intervals in children.items():
        _, _, _, low, high, _ = by_id[parent]
        covered[parent] = _covered(intervals, low, high)
        busy = sum(end - start for start, end in intervals)
        scale[parent] = covered[parent] / busy if busy > 0 else 1.0
    summary = Summary()
    summary.events = events
    weight: Dict[int, float] = {}
    # Parents start (and take their ids) before their children.
    for span_id in sorted(by_id):
        _, parent, name, start, end, measured = by_id[span_id]
        share = weight[parent] * scale[parent] if parent in weight else 1.0
        weight[span_id] = share
        own = share * (end - start - covered.get(span_id, 0.0))
        row = summary.spans.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own
        row[2] += share * (end - start)
        summary.self_s += own
        if measured:
            for key, value in zip(MEASURES[name], measured):
                summary.measures[key] = summary.measures.get(key, 0.0) + value
    return summary


class Tracer:
    """Records wall-clock spans around the patched layer entry points."""

    def __init__(self) -> None:
        self._parent: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "e2e_span_parent", default=None
        )
        self._ids = itertools.count(1)
        # list.append and next() on a count are atomic under the GIL, so
        # worker threads of a sharded sweep may record concurrently.
        self._records: List[Record] = []
        self._events: List[int] = []
        self.origin = perf_counter_s()

    def install(self) -> None:
        """Patch every entry point in :data:`PATCHES`, plus the event count."""
        for module_name, path, name, measure, prepare in PATCHES:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for owner_name in owners:
                owner = getattr(owner, owner_name)
            setattr(
                owner,
                attribute,
                self._wrap(getattr(owner, attribute), name, measure, prepare),
            )
        simulator = importlib.import_module("repro.sim.events").Simulator
        schedule = simulator.schedule
        count = self._events.append

        def counted_schedule(*args: object, **kwargs: object) -> object:
            count(1)
            return schedule(*args, **kwargs)

        simulator.schedule = counted_schedule

    def _wrap(
        self,
        original: Callable[..., object],
        name: str,
        measure: Optional[Measure],
        prepare: Optional[Prepare],
    ) -> Callable[..., object]:
        call = self.call

        def traced(*args: object, **kwargs: object) -> object:
            if prepare is not None:
                args = prepare(self, args)
            return call(name, original, args, kwargs, measure)

        return traced

    def call(
        self,
        name: str,
        fn: Callable[..., object],
        args: tuple,
        kwargs: dict,
        measure: Optional[Measure] = None,
        thread_cpu: bool = False,
    ) -> object:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        parent = self._parent.get()
        span_id = next(self._ids)
        token = self._parent.set(span_id)
        measured: Optional[Tuple[float, ...]] = None
        cpu = _thread_cpu_s() if thread_cpu else 0.0
        start = perf_counter_s()
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                measured = measure(args, result)
            elif thread_cpu:
                measured = (_thread_cpu_s() - cpu,)
            return result
        finally:
            end = perf_counter_s()
            self._parent.reset(token)
            self._records.append((span_id, parent, name, start, end, measured))

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A parentless span around harness code (``setup``, ``op``)."""
        span_id = next(self._ids)
        token = self._parent.set(span_id)
        start = perf_counter_s()
        try:
            yield
        finally:
            end = perf_counter_s()
            self._parent.reset(token)
            self._records.append((span_id, None, name, start, end, None))

    def take(self) -> Tuple[List[Record], int]:
        """The spans and event count recorded since the last call."""
        records = self._records[:]
        self._records.clear()
        events = len(self._events)
        self._events.clear()
        return records, events

    def span_records(
        self, records: Sequence[Record], trace_id: str, id_base: int
    ) -> List[SpanRecord]:
        """Records in the repository's span-dump layout, labelled wall-clock."""
        return [
            SpanRecord(
                span_id=id_base + span_id,
                parent_id=None if parent is None else id_base + parent,
                name=name,
                start_ns=(start - self.origin) * 1e9,
                end_ns=(end - self.origin) * 1e9,
                attributes={"clock": "wall"},
                trace_id=trace_id,
            )
            for span_id, parent, name, start, end, _ in sorted(records)
        ]


def layer_metrics(
    ops: Summary, op_count: int, setup: Summary, workers: int
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run: ``name -> (value, unit)``.

    Per-op values are means over the ``op_count`` timed ops; ratios are
    taken over the totals; ``*.setup_ms`` come from the set-up spans.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in SPANS:
        metrics[f"{name}.self_ms"] = (ops.self_time(name) * 1e3 / op_count, "ms")
        if name != "op":
            metrics[f"{name}.calls"] = (ops.calls(name) / op_count, "count")
    metrics["sim.events"] = (ops.events / op_count, "count")
    for name in SETUP_SPANS:
        metrics[f"{name}.setup_ms"] = (setup.self_time(name) * 1e3, "ms")

    measured = ops.measures
    events = ops.events
    metrics["sim.host_us_per_event"] = (
        ops.total_time("sim.run") * 1e6 / events if events else 0.0,
        "us",
    )
    wire = measured.get("net.wire_bytes", 0.0)
    useful = measured.get("icap.write.bytes", 0.0) + measured.get(
        "icap.readback.bytes", 0.0
    )
    metrics["net.wire_bytes"] = (wire / op_count, "bytes")
    metrics["net.goodput_ratio"] = (useful / wire if wire else 0.0, "ratio")
    retransmissions = measured.get("arq.retransmissions", 0.0)
    payloads = measured.get("arq.payloads", 0.0)
    metrics["arq.retransmissions"] = (retransmissions / op_count, "count")
    metrics["arq.retransmit_ratio"] = (
        retransmissions / payloads if payloads else 0.0,
        "ratio",
    )
    sessions = ops.calls("session.run")
    metrics["session.attempts"] = (
        measured.get("session.attempts", 0.0) / sessions if sessions else 0.0,
        "count",
    )
    metrics["session.dropped_frames"] = (
        measured.get("session.dropped_frames", 0.0) / op_count,
        "count",
    )
    for key in ("icap.write.frames", "icap.readback.frames"):
        metrics[key] = (measured.get(key, 0.0) / op_count, "count")
    metrics["cmac.bytes"] = (measured.get("cmac.bytes", 0.0) / op_count, "bytes")
    lookups = ops.calls("cache.get_system") + setup.calls("cache.get_system")
    builds = ops.calls("design.implement_plan") + setup.calls(
        "design.implement_plan"
    )
    metrics["cache.memo_hit_ratio"] = (
        (lookups - builds) / lookups if lookups else 0.0,
        "ratio",
    )
    sweep_wall = ops.total_time("swarm.map_sharded")
    metrics["swarm.parallel_efficiency"] = (
        measured.get("swarm.task_cpu_s", 0.0) / (workers * sweep_wall)
        if sweep_wall
        else 0.0,
        "ratio",
    )
    return metrics
