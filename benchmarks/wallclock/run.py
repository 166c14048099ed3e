"""EIIBench-wall: the repo's wall-clock benchmark.

One run of one workload (the form `BENCHMARK.json`'s `command` takes):

    python3 benchmarks/wallclock/run.py --workload mix_s1 --seed 1 \\
        --seconds 20 --trace 0

prints every end-to-end metric (`--trace 1`: every per-layer metric) by
name with its unit, then one JSON object as the last line. Without
`--workload` it runs a *full set*: `--rounds` fresh interpreters per
workload, interleaved A B C D A B C D so a noisy spell hits some rounds of
every workload instead of all rounds of one, and writes the medians and
spreads to `out/latest.json` (`compare.py` reads two of those).

See README.md in this directory for the measurement design.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


#: metric name -> unit, as `BENCHMARK.json` declares them
END_TO_END = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}


# -- one run of one workload ----------------------------------------------------


def set_up(workload, reference, recorder=None):
    """Build a stack (with `recorder`'s probes in it, if given) and warm it
    up; returns (stack, checker, reference seconds, failed)."""
    from measure import Checker, run_chunk

    reference.sample()
    start = time.perf_counter_ns()
    stack = workload.build(recorder.instrument if recorder is not None else None)
    checker = Checker(workload, stack)
    failed = 0
    for index in range(workload.warmup_chunks):
        steps = workload.steps(index)
        failed += run_chunk(stack, steps, checker, reference, recorder).failed
    end = time.perf_counter_ns()
    reference.sample()
    return stack, checker, (end - start) * reference.scale(start, end) / 1e9, failed


def run_untraced(workload, seconds: float, smoke: bool) -> dict:
    """Set up `setup_reps` times, then time chunks for `seconds`."""
    from measure import Reference, counted, end_to_end, run_chunk

    reference = Reference()
    setups, failed = [], 0
    for _ in range(1 if smoke else workload.setup_reps):
        stack = checker = None  # drop the previous set-up before the next
        gc.collect()
        stack, checker, setup_s, warm_failed = set_up(workload, reference)
        setups.append(setup_s)
        failed += warm_failed
    gc.collect()

    chunks = []
    start = time.perf_counter()
    while (
        len(chunks) < workload.counted_chunks
        or time.perf_counter() - start < seconds
    ):
        steps = workload.steps(workload.warmup_chunks + len(chunks))
        chunks.append(run_chunk(stack, steps, checker, reference))

    metrics, samples = end_to_end(chunks)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["setups"] = len(setups)
    samples["reference_kernel_ms"] = round(statistics.median(reference.costs) / 1e6, 3)
    return {
        "metrics": metrics,
        "samples": samples,
        "counted": counted(chunks[: workload.counted_chunks]),
        "attempted": sum(chunk.attempted for chunk in chunks),
        "failed": failed + sum(chunk.failed for chunk in chunks),
    }


def run_traced(workload, seconds: float) -> dict:
    """Alternate untraced and traced chunks over two identical stacks, then
    replay what the probes captured through the seamless layers.

    The chunk count is fixed by `--seconds` (not by the clock), so every
    count in the result repeats exactly.
    """
    import probes
    from measure import Reference, counted, mean, percentile, run_chunk

    reference = Reference()
    recorder = probes.Recorder()
    plain, plain_checker, _, failed = set_up(workload, reference)
    traced, traced_checker, _, warm_failed = set_up(workload, reference, recorder)
    failed += warm_failed
    # digest every answer: the two stacks must agree on all of them
    plain_checker.keep_digests = traced_checker.keep_digests = True
    recorder.spans.clear()  # warm-up spans are not part of the run
    gc.collect()

    pairs = max(1, round(workload.traced_pairs * seconds / 10))
    plain_chunks, traced_chunks = [], []
    stats_before = traced.engine.cache.stats()
    writes_before = traced.writes
    for pair in range(pairs):
        steps = workload.steps(workload.warmup_chunks + pair)
        plain_chunks.append(run_chunk(plain, steps, plain_checker, reference))
        recorder.capturing = pair == 0
        traced_chunks.append(
            run_chunk(traced, steps, traced_checker, reference, recorder)
        )
    recorder.capturing = False

    # the probes are observe-only: same answers, same deterministic accounting
    unequal = sum(
        a.digests != b.digests or a.tally != b.tally
        for a, b in zip(plain_chunks, traced_chunks)
    )
    failed += unequal + sum(c.failed for c in plain_chunks + traced_chunks)

    metrics = probes.span_metrics(recorder, reference, traced.writes - writes_before)
    metrics.update(probes.hit_ratios(stats_before, traced.engine.cache.stats()))
    metrics.update(counted(traced_chunks))

    tally = sum((chunk.tally for chunk in traced_chunks), start=Counter())
    queries = max(tally["queries"], 1)
    for name, key, per in (
        ("netsim.payload_kb_per_query", "payload_bytes", 1024),
        ("netsim.rows_shipped_per_query", "rows_shipped", 1),
        ("federation.fetches_per_query", "fetches", 1),
        ("federation.bind_joins_per_query", "bind_joins", 1),
        ("views.hits_per_query", "view_hits", 1),
        ("views.fallbacks_per_query", "view_fallbacks", 1),
    ):
        metrics[name] = tally[key] / per / queries
    selector = traced.engine.view_selector
    metrics["views.auto_views"] = float(len(selector.owned_views())) if selector else 0.0

    by_name: dict = {}
    for chunk in plain_chunks:
        for name, ns in chunk.reads:
            by_name.setdefault(name, []).append(ns)
    plain_ms = mean(ns for values in by_name.values() for ns in values) / 1e6
    metrics["bench.tracing_overhead_ratio"] = metrics["federation.query_ms"] / plain_ms
    for name in PER_LAYER:
        if name.startswith("query."):
            values = by_name.get(name.split(".")[1])
            metrics[name] = percentile(values, 50) / 1e6 if values else 0.0

    first_steps = workload.steps(workload.warmup_chunks)
    texts = [step.sql for step in first_steps if step.sql is not None]
    metrics.update(probes.replay_sql(texts, reference, 0.05 * seconds))
    metrics.update(probes.replay_engine(recorder.captured, reference, 0.15 * seconds))
    relations = [relation for _, _, relation in recorder.captured] + recorder.finals
    metrics.update(
        probes.replay_size_bytes(relations, len(texts), reference, 0.05 * seconds)
    )
    if workload.measures_observers:
        metrics.update(
            probes.observer_ratios(plain.fixture, first_steps, reference, 0.25 * seconds)
        )
    else:
        metrics.update({"trace.on_off_ratio": 0.0, "telemetry.on_off_ratio": 0.0})

    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"trace_{workload.name}.jsonl", reference)
    return {
        "metrics": metrics,
        "samples": {
            "pairs": pairs,
            "traced_queries": recorder.queries,
            "spans": len(recorder.spans),
            "reference_kernel_ms": round(statistics.median(reference.costs) / 1e6, 3),
        },
        "attempted": sum(c.attempted for c in plain_chunks + traced_chunks),
        "failed": failed,
    }


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    seconds = 0.0 if args.smoke else args.seconds
    if args.trace:
        detail = run_traced(workload, seconds)
        units = PER_LAYER
    else:
        detail = run_untraced(workload, seconds, args.smoke)
        units = END_TO_END
    if set(detail["metrics"]) != set(units):
        raise SystemExit(
            f"metrics measured and declared in BENCHMARK.json differ: "
            f"{sorted(set(detail['metrics']) ^ set(units))}"
        )

    print(f"# {workload.name} seed={args.seed} {detail['samples']}")
    for name, value in detail["metrics"].items():
        print(f"{name:34s} {value:14.6f} {units[name]}")
    for name, value in detail.get("counted", {}).items():
        print(f"{name:34s} {value:14.9f} {PER_LAYER[name]}")
    if args.detail:
        pathlib.Path(args.detail).write_text(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": detail["failed"] == 0,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in detail["metrics"].items()
                },
            }
        )
    )
    return 0 if detail["failed"] == 0 else 1


# -- a full set: rounds x workloads, one fresh interpreter each ---------------------


def spawn(workload: str, seed: int, args, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    detail_path = OUT / "child.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--detail", str(detail_path),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
    if done.returncode != 0 and not detail_path.exists():
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    detail = json.loads(detail_path.read_text())
    detail_path.unlink()
    return detail


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def full_set(args) -> int:
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    rounds = 1 if args.smoke else args.rounds
    runs: dict = {name: [] for name in names}
    for round_no in range(rounds):
        for name in names:
            runs[name].append(spawn(name, args.seed + round_no, args, trace=0))
            print(f"round {round_no + 1}/{rounds} {name} done", file=sys.stderr)
    traced = {}
    if args.traced:
        traced = {name: spawn(name, args.seed, args, trace=1) for name in names}
    result = {
        "seed": args.seed,
        "rounds": rounds,
        "seconds": args.seconds,
        "workloads": {},
    }
    failed = 0
    for name in names:
        summary = {"end_to_end": {}, "counted": [run["counted"] for run in runs[name]]}
        for metric, unit in END_TO_END.items():
            values = [run["metrics"][metric] for run in runs[name]]
            summary["end_to_end"][metric] = {
                "unit": unit,
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
        summary["samples"] = [run["samples"] for run in runs[name]]
        every = runs[name] + ([traced[name]] if name in traced else [])
        summary["attempted"] = sum(run["attempted"] for run in every)
        summary["failed"] = sum(run["failed"] for run in every)
        if name in traced:
            summary["per_layer"] = traced[name]["metrics"]
        failed += summary["failed"]
        result["workloads"][name] = summary

        print(f"\n== {name}: {rounds} runs, {summary['samples'][0]}")
        for metric, entry in summary["end_to_end"].items():
            print(
                f"{metric:34s} {entry['median']:14.6f} {entry['unit']:6s}"
                f" spread {entry['spread']:6.1%} over {rounds} runs"
            )
        for metric, value in summary["counted"][0].items():
            print(f"{metric:34s} {value:14.9f} {PER_LAYER[metric]}")
        for metric, value in summary.get("per_layer", {}).items():
            print(f"{metric:34s} {value:14.6f} {PER_LAYER[metric]}")
    (OUT / "latest.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {OUT / 'latest.json'}; failed operations: {failed}")
    return 0 if failed == 0 else 1


def regen_golden() -> int:
    """Rewrite golden.json from a plain default engine at scale 1 and 4."""
    from measure import GOLDEN_PATH, digest
    from workloads import WORKLOADS

    golden = {}
    for name in ("mix_s1", "mix_s4"):
        workload = WORKLOADS[name](0)
        engine = workload.build().engine
        golden[f"scale_{workload.scale}"] = {
            step.name: digest(engine.query(step.sql).relation)
            for step in sorted(workload.steps(0))
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    parser.add_argument("--workload", choices=names, help="run this one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=10, help="full set: runs per workload")
    parser.add_argument("--traced", action="store_true", help="full set: add the per-layer run")
    parser.add_argument("--smoke", action="store_true", help="fewest chunks, one set-up")
    parser.add_argument("--detail", help="also write this run's full result here")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"{src}/repro not found: run from a checkout of the repo")
    sys.path.insert(0, str(src))
    if args.regen_golden:
        return regen_golden()
    if args.workload:
        if os.environ.get("PYTHONHASHSEED") != "0":
            # string hashing (set order, dict collisions) would otherwise
            # differ from one interpreter to the next
            os.environ["PYTHONHASHSEED"] = "0"
            os.execv(sys.executable, [sys.executable, *sys.argv])
        return run_one(args)
    return full_set(args)


if __name__ == "__main__":
    sys.exit(main())
