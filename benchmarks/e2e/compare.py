"""Compare sets of end-to-end results against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py SET_A SET_B [SET_C ...]

A set is a ``results.json`` written by ``run.py`` or a directory
searched recursively for them -- one file per run, e.g. ten runs with
ten seeds.  Each later set is compared with the first, for every
(workload, end-to-end metric), runs paired by seed:

* ``unresolved``   -- a set's spread (interquartile range / median)
  exceeds the metric's bound, and not every B run beats every A run;
* ``better``       -- B wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than A's interquartile range;
* ``worse``        -- B's median is worse than A's by more than the bound;
* ``within bound`` -- otherwise.

``setup_s`` is judged on its medians alone, as the benchmark's own
acceptance rule does: one set-up lasts about a second and falls into a
single phase of host load, so its spread runs wide.

Of the metrics ``run.py`` reports beyond BENCHMARK.json, ``error_ratio``
and the sim-clock ``sim_attest_ms`` may not worsen at all; the others
are shown, not judged.  Exits 1 when any pairing is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Metrics outside BENCHMARK.json: direction, and whether any worsening
#: fails ("exact") or the row is only shown ("shown").
EXTRA = {
    "error_ratio": ("lower", "exact"),
    "sim_attest_ms": ("lower", "exact"),
    "attest_per_s": ("higher", "shown"),
    "op_p50_ms": ("lower", "shown"),
    "op_tail_ms": ("lower", "shown"),
}
WIN_SHARE = 0.9
MEDIAN_ONLY = ("setup_s",)

#: (workload, metric) -> [(seed, value)]
Runs = Dict[Tuple[str, str], List[Tuple[int, float]]]


def load_set(path: Path) -> Runs:
    files = [path] if path.is_file() else sorted(path.rglob("results.json"))
    runs: Runs = {}
    for file in files:
        results = json.loads(file.read_text(encoding="utf-8"))
        if results["trace"]:
            continue
        for workload, report in results["workloads"].items():
            for metric, measured in report["metrics"].items():
                runs.setdefault((workload, metric), []).append(
                    (results["seed"], measured["value"])
                )
    if not runs:
        raise SystemExit(f"error: no untraced results.json under {path}")
    return runs


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def _spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    low, high = _quartiles(values)
    median = statistics.median(values)
    return (high - low) / abs(median) if median else 0.0


def judge(
    a: List[Tuple[int, float]],
    b: List[Tuple[int, float]],
    better: str,
    bound: Optional[float],
    median_only: bool = False,
) -> Tuple[str, float]:
    """The verdict for one (workload, metric) and B's relative worsening."""
    sign = 1.0 if better == "lower" else -1.0
    if bound is None:
        # Exact metrics repeat for a given seed: compare like with like.
        common = {seed for seed, _ in a} & {seed for seed, _ in b}
        if not common:
            return "no common seeds", 0.0
        a = [run for run in a if run[0] in common]
        b = [run for run in b if run[0] in common]
    a_values = [value for _, value in sorted(a)]
    b_values = [value for _, value in sorted(b)]
    median_a = statistics.median(a_values)
    median_b = statistics.median(b_values)
    worsening = sign * (median_b - median_a)
    relative = worsening / abs(median_a) if median_a else worsening
    if bound is None:
        if worsening > 0:
            return "worse", relative
        return ("better" if worsening < 0 else "within bound"), relative
    spread = max(_spread(a_values), _spread(b_values))
    if sign > 0:
        all_better = max(b_values) < min(a_values)
    else:
        all_better = min(b_values) > max(a_values)
    if spread > bound and not all_better and not median_only:
        return "unresolved", relative
    pairs = list(zip(a_values, b_values))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    low_a, high_a = _quartiles(a_values)
    if wins >= WIN_SHARE * len(pairs) and abs(median_b - median_a) > high_a - low_a:
        return "better", relative
    if relative > bound:
        return "worse", relative
    return "within bound", relative


def _describe(values: List[Tuple[int, float]]) -> str:
    numbers = [value for _, value in values]
    low, high = _quartiles(numbers)
    return f"{statistics.median(numbers):.4g} [{low:.4g}, {high:.4g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    if len(paths) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    baseline = load_set(paths[0])
    failing = False
    for path in paths[1:]:
        other = load_set(path)
        print(f"A = {paths[0]}  vs  B = {path}")
        print(f"{'workload':<14} {'metric':<14} {'A median [q1, q3]':<30} "
              f"{'B median [q1, q3]':<30} {'worse by':>9} {'spread':>7} "
              f"{'bound':>6}  verdict")
        for key in sorted(set(baseline) & set(other)):
            workload, metric = key
            mode = "bound"
            if metric in metrics:
                better, bound = metrics[metric]["better"], metrics[metric]["bound"]
            elif metric in EXTRA:
                (better, mode), bound = EXTRA[metric], None
            else:
                continue
            verdict, relative = judge(
                baseline[key], other[key], better, bound, metric in MEDIAN_ONLY
            )
            spread = max(
                _spread([value for _, value in runs])
                for runs in (baseline[key], other[key])
            )
            if mode == "shown":
                verdict = "not gated"
            failing |= verdict in ("worse", "unresolved")
            bound_text = mode if bound is None else f"{bound:.2f}"
            print(f"{workload:<14} {metric:<14} {_describe(baseline[key]):<30} "
                  f"{_describe(other[key]):<30} {100 * relative:>8.2f}% "
                  f"{100 * spread:>6.1f}% {bound_text:>6}  {verdict}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
