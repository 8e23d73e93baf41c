"""One workload in one process: set up, warm up, run the timed window.

``run.py`` starts this script with ``PYTHONPATH=src`` and a pinned
environment and reads the one JSON line it prints at the end.  Modes:

* ``setup`` -- set up, report the set-up time, exit;
* ``run``   -- set up, run two warm-up ops, then ops back to back (one
  client, closed loop) until ``--seconds`` have passed;
* ``trace`` -- as ``run``, with the layer tracer installed first.

Set-up time runs from ``--spawned-at``, the parent's
``perf_counter_s()`` reading just before it started this process (the
monotonic clock is system-wide), to the first op being ready.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from typing import ContextManager, Dict, List, Optional

import numpy
from tracer import Summary, Tracer, layer_metrics, summarize
from workloads import WORKLOADS, Outcome

from repro.errors import ReproError
from repro.obs.exporters import spans_to_jsonl
from repro.obs.spans import SpanRecord
from repro.obs.wallclock import perf_counter_s
from repro.perf.backends import resolve_backend_name

WARMUP_OPS = 2
SMOKE_OPS = 2
#: Timed ops whose spans are written out in full (the rest are aggregated).
DUMPED_OPS = 2
#: How many failure descriptions a result carries.
FAILURES_SHOWN = 5


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("--span-base", type=int, default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    backend = resolve_backend_name()
    if backend != "native":
        print(
            f"AES backend resolved to {backend!r}, not 'native': install the "
            "'perf' extra (cryptography) before measuring",
            file=sys.stderr,
        )
        return 3
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()

    def scope(name: str) -> ContextManager[None]:
        return tracer.root(name) if tracer is not None else contextlib.nullcontext()

    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    with scope("setup"):
        workload.setup()
    setup_s = perf_counter_s() - args.spawned_at
    result: Dict[str, object] = {"setup_s": setup_s}
    if args.mode == "setup":
        workload.close()
        print(json.dumps(result))
        return 0
    setup = summarize(tracer.take()[0]) if tracer is not None else Summary()

    failures: List[str] = []
    pinned: List[str] = []
    pinned_sim_ns: List[float] = []
    errors = 0

    def run_op(k: int) -> List[Outcome]:
        nonlocal errors
        with scope("op"):
            try:
                outcomes = workload.op(k)
            except ReproError as error:
                # A wrong result, not a benchmark crash: count it and go on.
                outcomes = [Outcome(workload.name, "error", "", 0.0, repr(error))]
        for outcome in outcomes:
            if outcome.error:
                errors += 1
                if len(failures) < FAILURES_SHOWN:
                    failures.append(f"op {k} {outcome.label}: {outcome.error}")
        if k < workload.pin_ops:
            pinned_sim_ns.extend(outcome.sim_ns for outcome in outcomes)
            pinned.extend(
                f"{k} {o.label} {o.verdict} {o.tag}"
                for o in sorted(outcomes, key=lambda o: o.label)
            )
        if k == workload.pin_ops - 1:
            # Peak memory over a fixed amount of work, whatever the
            # window holds: set-up plus the ops the pin covers.
            result["peak_rss_mb"] = _peak_rss_mb()
        return outcomes

    first = 0 if args.smoke else WARMUP_OPS
    for k in range(first):
        run_op(k)
    if tracer is not None:
        tracer.take()

    ops = Summary()
    spans: List[SpanRecord] = []
    latencies: List[float] = []
    attempted = failed = 0
    self_error = 0.0
    k = first
    start = perf_counter_s()
    deadline = start + args.seconds
    while True:
        before = perf_counter_s()
        outcomes = run_op(k)
        after = perf_counter_s()
        latencies.append(after - before)
        attempted += len(outcomes)
        failed += sum(1 for outcome in outcomes if outcome.error)
        if tracer is not None:
            records, events = tracer.take()
            summary = summarize(records, events)
            ops.add(summary)
            op_s = summary.total_time("op")
            self_error = max(self_error, abs(summary.self_s - op_s) / op_s)
            if len(latencies) <= DUMPED_OPS:
                trace_id = f"{workload.name}/{k}"
                spans.extend(tracer.span_records(records, trace_id, args.span_base))
        k += 1
        if args.smoke:
            if len(latencies) >= SMOKE_OPS:
                break
        elif after >= deadline:
            break
    window_s = after - start

    digest = None
    if not args.smoke:
        # Ops past the window that the pin still covers run untimed.
        for k in range(k, workload.pin_ops):
            run_op(k)
        digest = hashlib.sha256("\n".join(pinned).encode()).hexdigest()

    result.setdefault("peak_rss_mb", _peak_rss_mb())
    result.update(
        latencies_s=latencies,
        window_s=window_s,
        attempted=attempted,
        failed=failed,
        errors=errors,
        failures=failures,
        # Over the pinned ops, so it repeats exactly for a given seed.
        sim_attest_ms=statistics.median(pinned_sim_ns) / 1e6,
        tail_percentile=workload.tail_percentile,
        digest=digest,
        env={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "aes_backend": backend,
        },
    )
    if tracer is not None:
        metrics = layer_metrics(ops, len(latencies), setup, workload.workers)
        result["layers"] = {name: list(pair) for name, pair in metrics.items()}
        result["self_error"] = self_error
        with open(args.spans, "a", encoding="utf-8") as dump:
            dump.write(spans_to_jsonl(spans))
    workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
