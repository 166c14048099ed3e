"""Compare fresh bench results against committed baselines.

Every `bench_*.py` hands its table to `record_experiment`
(`benchmarks/conftest.py`), which writes the experiment's one record,
``results/<id>.json``; pristine copies live under ``benchmarks/baselines/``.
This checker is what CI's `bench-regression` job runs after regenerating the
results. For every baseline and every fresh result:

* a **missing** fresh result for a baselined experiment fails (the bench
  stopped reporting — silent coverage loss), and so does a fresh result
  **nobody baselined** (an experiment nothing holds to a value);
* a **failed gate** in a fresh result fails (the bench's own acceptance
  bar, re-evaluated on today's numbers);
* a **moved table** fails: the counted table (counts and simulated seconds —
  it replays exactly) must equal the baseline's; every differing row is
  named. A change that means to move it re-records the baseline in the same
  commit (``cp benchmarks/results/<id>.json benchmarks/baselines/``);
* a **headline regression** fails: a record may declare a headline metric
  and direction (``up`` = bigger is better); a fresh value more than
  ``--tolerance`` (default 20%) worse than baseline is a regression.
  Improvements are reported but never fail.

Usage::

    python benchmarks/check_regression.py [--tolerance 0.20]
        [--results benchmarks/results] [--baselines benchmarks/baselines]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent


def load(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())


def headline_delta(baseline: dict, fresh: dict) -> tuple:
    """(metric, base_value, fresh_value, relative_change_toward_worse)."""
    headline = baseline.get("headline") or fresh.get("headline")
    if not headline:
        return ("", 0.0, 0.0, 0.0)
    metric = headline["metric"]
    direction = headline.get("direction", "up")
    base = float(baseline["metrics"][metric])
    new = float(fresh["metrics"][metric])
    if base == 0.0:
        return (metric, base, new, 0.0)
    change = (new - base) / abs(base)
    worse = -change if direction == "up" else change
    return (metric, base, new, worse)


def table_difference(baseline: dict, fresh: dict) -> list:
    """What moved between the two records' tables, one line each ([] when equal)."""
    base, new = baseline.get("table"), fresh.get("table")
    if base == new:
        return []
    if not base or not new:
        return ["table missing from the " + ("baseline" if not base else "result")]
    if base["headers"] != new["headers"]:
        return [f"table headers {base['headers']} -> {new['headers']}"]
    moved = [
        f"table row {number} moved: {was} -> {now}"
        for number, (was, now) in enumerate(zip(base["rows"], new["rows"]), start=1)
        if was != now
    ]
    if len(base["rows"]) != len(new["rows"]):
        moved.append(f"table has {len(new['rows'])} rows, baseline {len(base['rows'])}")
    return moved


def check(results_dir: pathlib.Path, baselines_dir: pathlib.Path, tolerance: float) -> int:
    failures = []
    lines = []
    baselines = sorted(path.name for path in baselines_dir.glob("*.json"))
    if not baselines:
        print(f"no baselines under {baselines_dir}", file=sys.stderr)
        return 2
    for path in sorted(results_dir.glob("*.json")):
        if path.name not in baselines:
            failures.append(f"{path.name}: fresh result has no baseline")
    for name in baselines:
        fresh_path = results_dir / name
        baseline = load(baselines_dir / name)
        if not fresh_path.exists():
            failures.append(f"{name}: no fresh result (bench stopped reporting?)")
            continue
        fresh = load(fresh_path)
        gate_failures = [
            gate for gate, info in (fresh.get("gates") or {}).items()
            if not info["pass"]
        ]
        if gate_failures:
            failures.append(f"{name}: gates failed: {', '.join(sorted(gate_failures))}")
        verdict = "ok"
        moved = table_difference(baseline, fresh)
        if moved:
            failures.extend(f"{name}: {line}" for line in moved)
            verdict = "MOVED"
        metric, base, new, worse = headline_delta(baseline, fresh)
        if metric and worse > tolerance:
            failures.append(
                f"{name}: headline {metric} regressed "
                f"{100.0 * worse:.1f}% ({base:g} -> {new:g})"
            )
            verdict = "REGRESSED"
        elif metric and worse < -tolerance:
            verdict = "improved"
        headline = f"{metric:22s} {base:>12g} -> {new:>12g}" if metric else ""
        lines.append(f"  {name:10s} {headline:51s}  {verdict}")
    print(f"bench regression check (tables equal, headlines within {100.0 * tolerance:.0f}%):")
    print("\n".join(lines))
    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(baselines)} baselined experiments equal")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--results", type=pathlib.Path, default=HERE / "results")
    parser.add_argument("--baselines", type=pathlib.Path, default=HERE / "baselines")
    args = parser.parse_args(argv)
    return check(args.results, args.baselines, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
