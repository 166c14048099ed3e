"""Self-test of the wall-clock benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/wallclock -q

Drives `run.py --smoke` (one set-up, the fewest chunks) the way the
benchmark driver does - one interpreter per (workload, trace) - and checks
the contract: every declared metric is printed with its unit, counted
metrics repeat exactly, and the tracing probes change no answer.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import compare
import probes

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
COUNTED = {m["name"] for m in BENCHMARK["per_layer"] if compare.is_counted(m)}


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke",
            "--workload", workload, "--seed", "5", "--trace", str(trace),
        ],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["printed"] = {
        line.split()[0]: line.split()[-1] for line in lines[1:-1] if line.strip()
    }
    return result


@pytest.fixture(scope="module")
def runs():
    return {(w, t): smoke(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(runs, trace, section):
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    for workload in WORKLOADS:
        result = runs[workload, trace]
        assert set(result) >= {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        for name, unit in units.items():
            assert result["printed"][name] == unit


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in WORKLOADS:
        for name, metric in runs[workload, 0]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_probes_are_observe_only(runs):
    """A traced run executes every chunk on an untraced and a traced stack
    and counts a chunk whose answer digests, simulated seconds or bytes
    differ between the two as failed."""
    for workload in WORKLOADS:
        assert runs[workload, 1]["failed"] == 0


def test_each_layer_works_in_one_workload_and_rests_in_another(runs):
    def value(workload, name):
        return runs[workload, 1]["metrics"][name]["value"]

    assert value("mix_s4", "sources.busy_share") >= 0.9
    assert value("mix_s4", "engine.run_ms") > value("mix_s4", "engine.logical_plan_ms")
    assert value("adhoc_lookup_s1", "planner.calls_per_query") >= 0.95
    assert value("adhoc_lookup_s1", "cache.plan_hit_ratio") <= 0.05
    assert value("mix_s1", "planner.calls_per_query") == 0
    assert value("mix_s4", "planner.calls_per_query") == 0
    assert value("dashboard_rw", "cache.result_hit_ratio") >= 0.9


@pytest.mark.parametrize("workload", ["mix_s1", "adhoc_lookup_s1", "dashboard_rw"])
def test_counted_metrics_repeat_exactly(runs, workload):
    first, second = runs[workload, 1]["metrics"], smoke(workload, 1)["metrics"]
    for name in COUNTED:
        assert first[name]["value"] == second[name]["value"], name


def test_covered_ns_is_the_length_of_the_union():
    assert probes.covered_ns([(0, 10), (5, 20), (30, 40)], 0, 100) == 30
    assert probes.covered_ns([(0, 10), (5, 20)], 8, 15) == 7
    assert probes.covered_ns([], 0, 100) == 0


def test_compare_verdicts():
    metric = {"better": "lower", "bound": 0.10}

    def runs_of(*values, spread=0.02):
        ordered = sorted(values)
        return {
            "median": ordered[len(ordered) // 2],
            "spread": spread,
            "values": list(values),
        }

    base = runs_of(9.9, 10.0, 10.1)
    assert compare.verdict(metric, base, runs_of(11.9, 12.0, 12.1))[0] == "worse"
    assert compare.verdict(metric, base, runs_of(7.9, 8.0, 8.1))[0] == "better"
    assert compare.verdict(metric, base, runs_of(10.1, 10.2, 10.3))[0] == "same"
    noisy = runs_of(9.0, 10.2, 13.0, spread=0.3)
    assert compare.verdict(metric, base, noisy)[0] == "unresolved"
    higher = {"better": "higher", "bound": 0.10}
    assert compare.verdict(higher, base, runs_of(7.9, 8.0, 8.1))[0] == "worse"
