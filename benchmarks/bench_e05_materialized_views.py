"""E5 — materialized views: paying refresh cost to buy read latency.

Claim (Draper §5): a materialized-view capability — "in essence … a
light-weight ETL system" — lets the administrator choose live data or not,
per view. The tradeoff it buys: reads get cheap, data gets stale.

Method: a dashboard view over the federation under a timed read/update
workload, swept across refresh policies (live / interval(60) /
interval(600) / manual). We report per-read simulated cost and average
served staleness. Deterministic via an injected clock.
"""

from repro.bench import BenchConfig, build_enterprise
from repro.federation import FederatedEngine
from repro.views import RefreshPolicy, ViewManager

SQL = (
    "SELECT c.city, COUNT(*) AS open_orders FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.status = 'open' GROUP BY c.city"
)

READS = 60
READ_SPACING_S = 30.0


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def run_policy(policy_name):
    fixture = build_enterprise(BenchConfig(scale=1))
    engine = FederatedEngine(fixture.catalog(include_credit=False, include_docs=False))
    clock = Clock()
    manager = ViewManager(engine, clock=clock)
    if policy_name == "live":
        engine.catalog.define("dash", SQL)  # a name without rows: every read federates
    elif policy_name == "manual":
        manager.define_materialized("dash", SQL, RefreshPolicy.MANUAL)
    else:
        interval = float(policy_name.split("(")[1][:-1])
        manager.define_materialized(
            "dash", SQL, RefreshPolicy.INTERVAL, interval_s=interval
        )

    total_staleness = 0.0
    live_query_cost = None
    for read in range(READS):
        clock.now = read * READ_SPACING_S
        if policy_name == "live":
            result = engine.query("SELECT city, open_orders FROM dash")
            live_query_cost = result.elapsed_seconds
            staleness = 0.0
        else:
            _, staleness = manager.read_with_staleness("dash")
        total_staleness += staleness

    if policy_name == "live":
        total_cost = READS * live_query_cost
        refreshes = READS
    else:
        view = manager.view("dash")
        total_cost = view.refresh_seconds
        refreshes = view.refresh_count
    return {
        "refreshes": refreshes,
        "cost_per_read": total_cost / READS,
        "avg_staleness": total_staleness / READS,
    }


def test_e05_materialized_views(record_experiment):
    policies = ["live", "interval(60)", "interval(600)", "manual"]
    stats = {name: run_policy(name) for name in policies}
    rows = [
        (
            name,
            stats[name]["refreshes"],
            round(stats[name]["cost_per_read"], 5),
            round(stats[name]["avg_staleness"], 1),
        )
        for name in policies
    ]

    record_experiment(
        "E5",
        "materialized views trade staleness for read cost, per policy",
        ["policy", "refreshes", "sim_cost_per_read_s", "avg_staleness_s"],
        rows,
        notes=f"{READS} reads spaced {READ_SPACING_S:.0f}s apart over the federation",
    )

    # Shape: cost per read falls monotonically live -> manual, staleness rises.
    costs = [stats[name]["cost_per_read"] for name in policies]
    staleness = [stats[name]["avg_staleness"] for name in policies]
    assert costs == sorted(costs, reverse=True)
    assert staleness == sorted(staleness)
    assert stats["live"]["avg_staleness"] == 0.0
    assert stats["manual"]["refreshes"] == 1
