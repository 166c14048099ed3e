"""E1 — EII vs warehouse: build/refresh cost vs live-query cost vs staleness.

Claim (Halevy §1, Bitton §3): there is a genuine tradeoff between the cost
of building/refreshing a warehouse, the cost of a live federated query and
the cost of stale data; neither technology dominates, and a crossover in
query rate separates their regimes.

Method: measure the *actual* substrate costs — a real ETL refresh of a
warehouse star (simulated seconds from the pipeline) and a real federated
execution of the dashboard query (simulated seconds from the network
model) — then project both to daily cost across query rates.
"""

from repro.bench.workload import QUERIES
from repro.common.types import DataType as T
from repro.federation import FederatedEngine
from repro.warehouse import EtlJob, Warehouse

QUERY = QUERIES["q5_city_revenue"]
WAREHOUSE_QUERY = (
    "SELECT c.city, SUM(o.total) AS revenue FROM dim_customer c "
    "JOIN fact_orders o ON c.id = o.cust_id GROUP BY c.city ORDER BY revenue DESC"
)
#: simulated seconds per local cost unit at the warehouse server
WAREHOUSE_TIME_PER_COST_UNIT = 2e-6


def build_warehouse(enterprise) -> Warehouse:
    warehouse = Warehouse()
    warehouse.db.create_table(
        "dim_customer",
        [("id", T.INT), ("name", T.STRING), ("city", T.STRING)],
        primary_key=["id"],
    )
    warehouse.db.create_table(
        "fact_orders",
        [("id", T.INT), ("cust_id", T.INT), ("total", T.FLOAT)],
        primary_key=["id"],
    )
    crm = enterprise.crm
    sales = enterprise.sales
    warehouse.add_job(
        EtlJob(
            "extract_customers",
            lambda: crm.table("customers").scan(),
            "dim_customer",
            transforms=[
                lambda rel: _project(rel, ["id", "name", "city"]),
            ],
        )
    )
    warehouse.add_job(
        EtlJob(
            "extract_orders",
            lambda: sales.table("orders").scan(),
            "fact_orders",
            transforms=[lambda rel: _project(rel, ["id", "cust_id", "total"])],
        )
    )
    return warehouse


def _project(relation, names):
    positions = [relation.schema.index_of(name) for name in names]
    from repro.common.relation import Relation

    return Relation(
        relation.schema.project(positions),
        [tuple(row[i] for i in positions) for row in relation.rows],
    )


def test_e01_eii_vs_warehouse(enterprise, record_experiment):
    engine = FederatedEngine(enterprise.catalog())
    live = engine.query(QUERY)
    live_cost_s = live.elapsed_seconds

    warehouse = build_warehouse(enterprise)
    refresh_stats = warehouse.refresh()
    refresh_cost_s = sum(stat.seconds for stat in refresh_stats)
    plan = warehouse.engine.logical_plan(WAREHOUSE_QUERY)
    wh_query_cost_s = (
        warehouse.engine.cost_model.estimate(plan).cost * WAREHOUSE_TIME_PER_COST_UNIT
    )

    # Both paths must compute the same dashboard.
    wh_rows = warehouse.query(WAREHOUSE_QUERY).rows
    assert [row[0] for row in wh_rows] == [row[0] for row in live.relation.rows]

    refreshes_per_day = 24  # hourly refresh, the classic warehouse cadence
    rows = []
    crossover_rate = None
    for rate in (1, 10, 100, 1_000, 10_000, 100_000):
        eii_day = rate * live_cost_s
        wh_day = refreshes_per_day * refresh_cost_s + rate * wh_query_cost_s
        winner = "eii" if eii_day < wh_day else "warehouse"
        if crossover_rate is None and winner == "warehouse":
            crossover_rate = rate
        rows.append(
            (
                rate,
                round(eii_day, 2),
                round(wh_day, 2),
                round(rate * 43_200 / 86_400, 1),  # avg staleness-seconds served
                winner,
            )
        )

    record_experiment(
        "E1",
        "warehouse build/refresh vs live query: a crossover separates regimes",
        ["queries/day", "eii_s/day", "warehouse_s/day", "avg_staleness_ks", "winner"],
        rows,
        notes=(
            f"measured: live query {live_cost_s:.4f}s, refresh {refresh_cost_s:.2f}s, "
            f"warehouse query {wh_query_cost_s:.5f}s; hourly refresh"
        ),
    )

    # Shape: EII wins at low rates, warehouse at high rates, one crossover.
    assert rows[0][-1] == "eii"
    assert rows[-1][-1] == "warehouse"
    assert crossover_rate is not None
    winners = [row[-1] for row in rows]
    assert winners == sorted(winners)[::-1] or winners.count("eii") + winners.count(
        "warehouse"
    ) == len(winners)
    # monotone: once warehouse wins it keeps winning
    first_wh = winners.index("warehouse")
    assert all(w == "warehouse" for w in winners[first_wh:])
