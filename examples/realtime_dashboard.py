"""Digital dashboard: live vs materialized views, and what the advisor says.

Run with:  python examples/realtime_dashboard.py

The second founding application from the panel's introduction: "digital
dashboards that required tracking information from multiple sources in
real time." This example runs a dashboard three ways — live federation,
a 5-minute materialized view, and a manual (nightly-style) snapshot —
under an update stream, reporting the freshness/cost tradeoff each policy
buys. It then asks the persistence advisor (Bitton's guidelines + the
Halevy cost formula) which architecture this workload actually deserves.
"""

from repro.advisor import PersistenceAdvisor, WorkloadProfile
from repro.bench import BenchConfig, build_enterprise
from repro.federation import FederatedEngine
from repro.views import RefreshPolicy, ViewManager

DASHBOARD_SQL = (
    "SELECT c.city, COUNT(*) AS open_orders, SUM(o.total) AS exposure "
    "FROM customers c JOIN orders o ON c.id = o.cust_id "
    "WHERE o.status = 'open' GROUP BY c.city ORDER BY exposure DESC"
)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def read(engine, manager, name):
    """``(rows, staleness)`` of a dashboard: the stored rows of a materialized
    view, or - for a name without rows - the live query it stands for."""
    if engine.catalog.definitions[name].policy is None:
        live = engine.query(f"SELECT city, open_orders, exposure FROM {name}")
        return live.relation, 0.0
    return manager.read_with_staleness(name)


def main():
    fixture = build_enterprise(BenchConfig(scale=1))
    engine = FederatedEngine(fixture.catalog(include_credit=False, include_docs=False))
    clock = Clock()
    manager = ViewManager(engine, clock=clock)

    engine.catalog.define("dash_live", DASHBOARD_SQL)  # no rows: always the live query
    manager.define_materialized(
        "dash_5min", DASHBOARD_SQL, RefreshPolicy.INTERVAL, interval_s=300
    )
    manager.define_materialized("dash_snapshot", DASHBOARD_SQL, RefreshPolicy.MANUAL)

    orders = fixture.sales.table("orders")
    next_order_id = 100_000

    print("dashboard (t=0):")
    print(read(engine, manager, "dash_live")[0].pretty(limit=4))
    print()

    # one simulated hour: an order lands every 30s, dashboards read each 5min
    for minute in range(0, 61, 5):
        clock.now = minute * 60.0
        for _ in range(10):
            next_order_id += 1
            orders.insert(
                (next_order_id, (next_order_id % 200) + 1, 1, None, 1, 999.0, "open")
            )
        for name in ("dash_live", "dash_5min", "dash_snapshot"):
            read(engine, manager, name)

    print("after one simulated hour of updates:")
    header = f"{'view':14} | {'open orders':>11} | {'staleness':>9} | {'refreshes':>9}"
    print(header)
    print("-" * len(header))
    for name in ("dash_live", "dash_5min", "dash_snapshot"):
        relation, staleness = read(engine, manager, name)
        total_open = sum(row[1] for row in relation.rows)
        refreshes = (
            "every read"
            if name == "dash_live"
            else str(manager.view(name).refresh_count)
        )
        print(f"{name:14} | {total_open:11} | {staleness:8.0f}s | {refreshes:>9}")
    print()

    advisor = PersistenceAdvisor()
    profile = WorkloadProfile(
        name="ops_dashboard",
        queries_per_day=2_000,
        freshness_requirement_s=300,   # ops wants five-minute data
        rows_touched=1_200,
        rows_to_copy=1_200,
    )
    recommendation = advisor.decide(profile)
    print("advisor verdict for this dashboard workload:")
    print(f"  choice: {recommendation.choice}")
    for reason in recommendation.reasons or [recommendation.rule]:
        print(f"  why:    {reason}")

    history_profile = WorkloadProfile(
        name="quarterly_history", history_required=True
    )
    print("\nand for the quarterly-history report on the same data:")
    print(f"  choice: {advisor.decide(history_profile).choice} "
          f"({advisor.decide(history_profile).rule})")


if __name__ == "__main__":
    main()
