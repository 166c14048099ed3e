"""Compare two full-set result files by the bounds in BENCHMARK.json.

    python3 benchmarks/wallclock/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of the same
code), B the candidate. One row per (workload, end-to-end metric):

* ``worse`` / ``better`` - B's median differs from A's by more than the
  metric's bound, as a share of A's median;
* ``unresolved`` - within the bound, but the run-to-run spread of either
  set is wider than the bound and the two sets' runs overlap, so "no
  change" cannot be claimed;
* ``same`` - within the bound, and the spread supports saying so.

Counted metrics (simulated seconds, bytes, hit ratios, call counts) must be
exactly equal run for run. Exit status 1 on any ``worse`` row or any
inexact counted metric.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = 1e-9


def is_counted(metric: dict) -> bool:
    """Per-layer metrics that are sums of the program's own counters (they
    involve no clock, so they repeat exactly at one seed)."""
    return (
        metric["unit"] in ("count", "KB", "sim-s")
        or metric["name"].endswith("_hit_ratio")
        or metric["name"] == "failed_share"
    )


def verdict(metric: dict, a: dict, b: dict) -> tuple:
    """(verdict, worsening as a share of A's median) for one metric."""
    sign = 1 if metric["better"] == "lower" else -1
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    if worsening > metric["bound"]:
        return "worse", worsening
    if worsening < -metric["bound"]:
        return "better", worsening
    overlap = not (
        max(a["values"]) < min(b["values"]) or max(b["values"]) < min(a["values"])
    )
    if max(a["spread"], b["spread"]) > metric["bound"] and overlap:
        return "unresolved", worsening
    return "same", worsening


def inexact(name: str, a, b) -> list:
    """Rows for counted values that differ between the two sets."""
    rows = []
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key), b.get(key)
        if left is None or right is None:
            rows.append(f"{name} {key}: only in one file")
        elif abs(left - right) > EXACT * max(abs(left), abs(right)):
            rows.append(f"{name} {key}: {left!r} != {right!r}")
    return rows


def compare(a: dict, b: dict) -> int:
    bad = 0
    print(
        f"{'workload':16s} {'metric':18s} {'verdict':10s} {'A':>12s} {'B':>12s} "
        f"{'B vs A':>8s} {'bound':>6s} {'spread A':>8s} {'spread B':>8s}"
    )
    counted_names = {m["name"] for m in BENCHMARK["per_layer"] if is_counted(m)}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        left, right = a["workloads"][workload], b["workloads"][workload]
        for metric in BENCHMARK["end_to_end"]:
            x = left["end_to_end"][metric["name"]]
            y = right["end_to_end"][metric["name"]]
            word, worsening = verdict(metric, x, y)
            bad += word == "worse"
            print(
                f"{workload:16s} {metric['name']:18s} {word:10s} "
                f"{x['median']:12.4f} {y['median']:12.4f} {worsening:+8.1%} "
                f"{metric['bound']:6.0%} {x['spread']:8.1%} {y['spread']:8.1%}"
            )
        problems = []
        if len(left["counted"]) != len(right["counted"]):
            problems.append(f"{workload}: the sets have different numbers of runs")
        for index, (x, y) in enumerate(zip(left["counted"], right["counted"])):
            problems += inexact(f"{workload} run {index}", x, y)
        if "per_layer" in left and "per_layer" in right:
            problems += inexact(
                f"{workload} traced",
                {k: v for k, v in left["per_layer"].items() if k in counted_names},
                {k: v for k, v in right["per_layer"].items() if k in counted_names},
            )
        for side, result in (("A", left), ("B", right)):
            if result["failed"]:
                problems.append(f"{workload}: {result['failed']} failed operations in {side}")
        for problem in problems:
            print(f"INEXACT {problem}")
        if not problems:
            print(f"{workload:16s} counted metrics   exact")
        bad += len(problems)
    print(f"\n(B vs A: worsening as a share of A's median; negative is better) bad rows: {bad}")
    return 1 if bad else 0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        print("the two sets were run with different --seed/--seconds", file=sys.stderr)
        return 2
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
