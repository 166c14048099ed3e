"""A2 (ablation/scale) — mixed-workload throughput across scale factors.

Bitton's TPC-style benchmark argument implies a throughput-style metric: a
dashboard-heavy query mix (EIIBench's `QUERY_MIX`, 100 weighted queries)
executed end to end. We sweep the data scale factor and report simulated
total seconds and queries/second, checking that (a) cheap point lookups
dominate the count but not the time, and (b) cost grows sublinearly with
scale for the selective mix (pushdown keeps component results small).
"""

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES, QUERY_MIX
from repro.federation import FederatedEngine


def run_mix(scale: int):
    fixture = build_enterprise(BenchConfig(scale=scale))
    engine = FederatedEngine(fixture.catalog())
    total_seconds = 0.0
    total_queries = 0
    per_class: dict = {}
    for name, weight in QUERY_MIX.items():
        plan = engine.planner.plan(QUERIES[name])
        result = engine.execute_plan(plan)
        per_class[name] = (weight, result.elapsed_seconds)
        total_seconds += weight * result.elapsed_seconds
        total_queries += weight
    return total_seconds, total_queries, per_class


def test_a02_mixed_workload(record_experiment):
    rows = []
    totals = {}
    for scale in (1, 2, 4):
        total_seconds, total_queries, per_class = run_mix(scale)
        totals[scale] = total_seconds
        rows.append(
            (
                scale,
                total_queries,
                round(total_seconds, 3),
                round(total_queries / total_seconds, 1),
            )
        )

    breakdown = run_mix(1)[2]
    detail = "; ".join(
        f"{name.split('_', 1)[0]}: {weight}x{seconds*1000:.1f}ms"
        for name, (weight, seconds) in breakdown.items()
    )
    record_experiment(
        "A2",
        "mixed dashboard workload: simulated throughput vs scale factor",
        ["scale", "queries", "sim_total_s", "queries_per_sim_s"],
        rows,
        notes=detail,
    )

    # Shape: total time grows with scale but sublinearly for this selective
    # mix (a 4x data scale costs well under 4x the time).
    assert totals[1] < totals[2] < totals[4]
    assert totals[4] < 3.0 * totals[1]
