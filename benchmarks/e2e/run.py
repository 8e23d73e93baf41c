"""End-to-end benchmark: full-device, paper-protocol, fleet-sweep, lossy-link.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload lossy-net --seed 7 --seconds 20
    python3 benchmarks/e2e/run.py --trace              # per-layer budget
    python3 benchmarks/e2e/run.py --smoke              # every check, fast

Each workload runs in fresh child processes, one at a time, so the
load is one generating process (plus the fleet's two sweep threads).
The child sets up (imports, a cold artifact build, provisioning and
enrollment), runs two untimed warm-up ops, then runs ops back to back
-- one client, closed loop -- for ``--seconds``.  Set-up is repeated in
set-up-only children and reported as the median.  Every verdict is
checked; at the default seed the verdicts and MAC tags of the first
ops must also match ``pins.json``.

``--trace`` instead runs half the window untraced and half with the
outside-in layer tracer (``tracer.py``) and reports the per-layer
metrics, the tracing overhead, and ``spans.wall.jsonl`` for
``python -m repro obs report|flame``.

The metric names, units and bounds are the ones in ``BENCHMARK.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``results.json`` in
``--out`` holds everything, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"
DEFAULT_SEED = 2019
SETUP_SAMPLES = 3
#: Wall-clock budget of one workload, children included.
WORKLOAD_BUDGET_S = 170.0
#: How far a traced op's wall time may differ from the sum of the self
#: times of its spans.
SELF_TIME_TOLERANCE = 0.02
#: Span ids of workload i start at i * SPAN_ID_STRIDE in the span dump.
SPAN_ID_STRIDE = 10**9


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a wrong verdict)."""


def _metric(value: float, unit: str, samples: int, **extra: object) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def _percentile(values: Sequence[float], percent: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


class Runner:
    """Spawns the children of one invocation and turns them into metrics."""

    def __init__(self, args: argparse.Namespace, clock: Callable[[], float]) -> None:
        self.args = args
        self.clock = clock
        self.spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
        self.pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
        self.out = Path(args.out)
        self.workdir = self.out / "work"
        self.spans_path = self.out / "spans.wall.jsonl"
        # No REPRO_* knobs (no cache dir, default transport), fixed hashing.
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = str(SRC)
        self.env = env
        self.env_info: Dict[str, object] = {}

    def spawn(
        self, workload: str, mode: str, seconds: float, deadline: float,
        extra: Sequence[str] = (),
    ) -> dict:
        """Run one child to completion and return its result line."""
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload,
            "--seed", str(self.args.seed),
            "--seconds", repr(seconds),
            "--mode", mode,
            "--workdir", str(self.workdir),
            *extra,
        ]
        if self.args.smoke:
            command.append("--smoke")
        command += ["--spawned-at", repr(self.clock())]
        timeout = max(1.0, deadline - self.clock())
        with subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True
        ) as child:
            try:
                output, _ = child.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise BenchmarkError(
                    f"{workload}: {mode} child ran past its {timeout:.0f} s budget"
                ) from None
        if child.returncode != 0 or not output.strip():
            raise BenchmarkError(
                f"{workload}: {mode} child exited with code {child.returncode}"
            )
        return json.loads(output.splitlines()[-1])

    def verdict_checks(self, workload: str, result: dict) -> dict:
        """Correctness of one child's ops, including the default-seed pin."""
        pin = "not checked (only the default seed in full mode is pinned)"
        pinned_ok = True
        digest = result["digest"]
        if digest is not None and self.args.seed == DEFAULT_SEED:
            if self.args.write_pins:
                self.pins[workload] = digest
            expected = self.pins.get(workload)
            pinned_ok = digest == expected
            pin = "match" if pinned_ok else f"MISMATCH: got {digest}, pinned {expected}"
        return {
            "correct": result["errors"] == 0 and pinned_ok,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "errors": result["errors"],
            "failures": result["failures"],
            "digest": digest,
            "pin": pin,
        }

    def measure(self, workload: str) -> dict:
        """Tracing off: the end-to-end metrics."""
        deadline = self.clock() + WORKLOAD_BUDGET_S
        seconds = self.args.seconds
        extra_setups = 0 if self.args.smoke else SETUP_SAMPLES - 1
        # Set-up-only children run before and after the measuring one, so
        # the samples are spread over the run rather than bunched.
        setups = [
            self.spawn(workload, "setup", seconds, deadline)["setup_s"]
            for _ in range(extra_setups // 2)
        ]
        main = self.spawn(workload, "run", seconds, deadline)
        setups.append(main["setup_s"])
        setups += [
            self.spawn(workload, "setup", seconds, deadline)["setup_s"]
            for _ in range(extra_setups - extra_setups // 2)
        ]
        self.env_info = main["env"]
        latencies = main["latencies_s"]
        count = len(latencies)
        percent = main["tail_percentile"]
        tail = _percentile(latencies, percent)
        attempted = main["attempted"]
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s", len(setups)),
            "attest_per_s": _metric(
                attempted / main["window_s"], "verdicts/s", attempted
            ),
            "op_min_ms": _metric(min(latencies) * 1e3, "ms", count),
            "op_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms", count),
            "op_tail_ms": _metric(
                tail * 1e3, "ms", count, quantile=f"p{percent}",
                beyond=sum(1 for value in latencies if value > tail),
            ),
            "peak_rss_mb": _metric(main["peak_rss_mb"], "MiB", 1),
            "error_ratio": _metric(main["failed"] / attempted, "ratio", attempted),
            "sim_attest_ms": _metric(
                main["sim_attest_ms"], "ms", attempted, clock="sim"
            ),
        }
        report = self.verdict_checks(workload, main)
        report.update(
            metrics=metrics, window_s=main["window_s"], ops=count,
            latencies_s=latencies, setups_s=setups,
        )
        return report

    def trace(self, workload: str, index: int) -> dict:
        """Half the window untraced, half traced: the per-layer metrics."""
        deadline = self.clock() + WORKLOAD_BUDGET_S
        seconds = self.args.seconds / 2
        base = self.spawn(workload, "run", seconds, deadline)
        traced = self.spawn(
            workload, "trace", seconds, deadline,
            extra=(
                "--spans", str(self.spans_path),
                "--span-base", str(index * SPAN_ID_STRIDE),
            ),
        )
        self.env_info = traced["env"]
        untraced_ms = statistics.median(base["latencies_s"]) * 1e3
        traced_ms = statistics.median(traced["latencies_s"]) * 1e3
        layers = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in traced["layers"].items()
        }
        layers.update({
            "trace.op_p50_ms": {"value": traced_ms, "unit": "ms"},
            "trace.untraced_op_p50_ms": {"value": untraced_ms, "unit": "ms"},
            "trace.overhead_ratio": {
                "value": traced_ms / untraced_ms - 1.0, "unit": "ratio"
            },
            "trace.self_error": {"value": traced["self_error"], "unit": "ratio"},
        })
        report = self.verdict_checks(workload, traced)
        untraced = self.verdict_checks(workload, base)
        report["correct"] = (
            report["correct"]
            and untraced["correct"]
            and traced["self_error"] <= SELF_TIME_TOLERANCE
        )
        report["failed"] += untraced["failed"]
        report["attempted"] += untraced["attempted"]
        report.update(layers=layers, ops=len(traced["latencies_s"]))
        return report

    def final_metrics(self, reports: Dict[str, dict]) -> Dict[str, dict]:
        """The metrics BENCHMARK.json names, as the last output line has them."""
        section = "per_layer" if self.args.trace else "end_to_end"
        key = "layers" if self.args.trace else "metrics"
        prefix = len(reports) > 1
        metrics: Dict[str, dict] = {}
        for workload, report in reports.items():
            for entry in self.spec[section]:
                measured = report[key].get(entry["name"])
                if measured is None or measured["unit"] != entry["unit"]:
                    raise BenchmarkError(
                        f"{workload}: {entry['name']} ({entry['unit']}) not "
                        "measured as BENCHMARK.json defines it"
                    )
                name = f"{workload}/{entry['name']}" if prefix else entry["name"]
                metrics[name] = {"value": measured["value"], "unit": entry["unit"]}
        return metrics


def _print_end_to_end(workload: str, report: dict, window: str) -> None:
    print(f"== {workload}: {report['ops']} ops in {report['window_s']:.2f} s "
          f"(closed loop, 1 client, {window})")
    for name, metric in report["metrics"].items():
        note = ""
        if "quantile" in metric:
            note = f"  {metric['quantile']}, {metric['beyond']} samples beyond"
            if metric["beyond"] < 10:
                note += " (fewer than 10: lengthen --seconds for a firmer tail)"
        clock = "sim-clock" if metric.get("clock") == "sim" else "wall-clock"
        print(f"  {name:<14} {metric['value']:>14.4f} {metric['unit']:<11} "
              f"n={metric['samples']:<6} {clock}{note}")
    _print_checks(report)


def _print_layers(workload: str, report: dict) -> None:
    layers = report["layers"]
    op_ms = sum(
        metric["value"] for name, metric in layers.items()
        if name.endswith(".self_ms")
    )
    print(f"== {workload}: wall-clock layer budget over {report['ops']} traced ops "
          f"({op_ms:.3f} ms/op)")
    rows = sorted(
        (metric["value"], name[: -len(".self_ms")])
        for name, metric in layers.items()
        if name.endswith(".self_ms") and metric["value"] > 0
    )
    for self_ms, span in reversed(rows):
        calls = layers.get(f"{span}.calls", {"value": 1})["value"]
        print(f"  {span:<26} {self_ms:>11.3f} ms/op {100 * self_ms / op_ms:>6.1f} %"
              f"  {calls:>11.1f} calls/op")
    groups: Dict[str, float] = {}
    for self_ms, span in rows:
        group = span.split(".")[0]
        groups[group] = groups.get(group, 0.0) + self_ms
    print("  by layer: " + ", ".join(
        f"{group} {100 * value / op_ms:.1f} %"
        for group, value in sorted(groups.items(), key=lambda item: -item[1])
    ))
    setup = {
        name[: -len(".setup_ms")]: metric["value"]
        for name, metric in layers.items()
        if name.endswith(".setup_ms") and metric["value"] > 0
    }
    print("  set-up self ms: " + ", ".join(
        f"{span} {value:.1f}" for span, value in setup.items()
    ))
    derived = [
        f"{name} {metric['value']:.4g} {metric['unit']}"
        for name, metric in layers.items()
        if not name.endswith((".self_ms", ".calls", ".setup_ms"))
    ]
    print("  " + "\n  ".join(derived))
    _print_checks(report)


def _print_checks(report: dict) -> None:
    print(f"  verdicts: {report['attempted']} timed, {report['failed']} wrong; "
          f"all ops {'ok' if report['errors'] == 0 else 'FAILED'}; pin {report['pin']}")
    for failure in report["failures"]:
        print(f"    {failure}")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", nargs="+", default=None,
        help="workloads to run (default: all in BENCHMARK.json)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed window per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics from a traced run instead of end-to-end",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="2 ops per workload, an 8-device fleet, every check",
    )
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument(
        "--write-pins", action="store_true",
        help="record this run's default-seed digests in pins.json",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    clock = importlib.import_module("repro.obs.wallclock").perf_counter_s
    runner = Runner(args, clock)
    names = [workload["name"] for workload in runner.spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {names}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(runner.spec["run_seconds"])
    runner.workdir.mkdir(parents=True, exist_ok=True)
    if args.trace and runner.spans_path.exists():
        runner.spans_path.unlink()

    reports: Dict[str, dict] = {}
    try:
        for index, workload in enumerate(workloads):
            if args.trace:
                reports[workload] = runner.trace(workload, index)
                _print_layers(workload, reports[workload])
            else:
                reports[workload] = runner.measure(workload)
                window = "smoke" if args.smoke else f"{args.seconds:g} s window"
                _print_end_to_end(workload, reports[workload], window)
        metrics = runner.final_metrics(reports)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if runner.workdir.is_dir() and not any(runner.workdir.iterdir()):
            runner.workdir.rmdir()

    if args.write_pins and args.seed == DEFAULT_SEED and not args.smoke:
        PINS_PATH.write_text(
            json.dumps(runner.pins, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {PINS_PATH}")
    correct = all(report["correct"] for report in reports.values())
    results = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "env": runner.env_info,
        "workloads": reports,
    }
    (runner.out / "results.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    if args.trace:
        print(f"spans of the first traced ops: {runner.spans_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(report["attempted"] for report in reports.values()),
        "failed": sum(report["failed"] for report in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
