"""Shared fixtures for the experiment harness.

Each `bench_*.py` regenerates one experiment from EXPERIMENTS.md: it computes
the experiment's series, asserts the claim's *shape* (who wins, direction of
the trend, where the crossover falls) and hands the table to
`record_experiment`, which prints it and writes the experiment's one record,
`benchmarks/results/<id>.json`. `benchmarks/check_regression.py` holds every
record against its baseline under `benchmarks/baselines/`.
"""

import json
import pathlib

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.bench.harness import print_experiment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def enterprise():
    """The shared scale-1 EIIBench enterprise (read-only across benches)."""
    return build_enterprise(BenchConfig(scale=1, seed=42))


def _evaluate_gate(value, op, threshold):
    if op == ">=":
        return value >= threshold
    if op == "<=":
        return value <= threshold
    if op == ">":
        return value > threshold
    if op == "<":
        return value < threshold
    if op == "==":
        return value == threshold
    raise ValueError(f"unsupported gate op {op!r}")


@pytest.fixture
def record_experiment():
    """Print an experiment table and write its record, ``results/<id>.json``.

    Every record holds the ``claim`` and the counted ``table`` (``headers`` +
    ``rows``; the checker requires it equal to the baseline's, so a column may
    hold only what replays exactly: counts and simulated seconds, never a wall
    clock). Benches that pass ``metrics`` (a flat name → number dict) add:

    * ``metrics`` — the headline numbers of the run;
    * ``gates`` — named pass/fail assertions ``(metric, op, threshold)``,
      each evaluated here so the JSON records both the value and verdict;
    * ``headline`` — which metric regressions are judged on, and whether
      bigger is better (``direction: "up" | "down"``).
    """

    def record(
        experiment_id,
        claim,
        headers,
        rows,
        notes="",
        metrics=None,
        gates=None,
        headline=None,
    ):
        print_experiment(experiment_id, claim, headers, rows, notes)
        payload = {
            "name": experiment_id.lower(),
            "claim": claim,
            "table": {"headers": headers, "rows": rows},
        }
        if metrics is not None:
            gate_results = {}
            for name, (metric, op, threshold) in (gates or {}).items():
                value = metrics[metric]
                gate_results[name] = {
                    "metric": metric,
                    "value": value,
                    "op": op,
                    "threshold": threshold,
                    "pass": _evaluate_gate(value, op, threshold),
                }
            payload["metrics"] = dict(metrics)
            payload["headline"] = headline
            payload["gates"] = gate_results
            payload["pass"] = all(g["pass"] for g in gate_results.values())
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{payload['name']}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return record
