"""A11 (answering queries using views) — Halevy's warehouse/live/stale
tradeoff, measured.

The panel's introduction frames the EII sales problem as explaining "the
tradeoffs between the cost of building a warehouse, the cost of a live
query and the cost of accessing stale data". This experiment puts a
repeat-heavy dashboard workload (the warehouse's home turf) through two
engines over the *same* evolving enterprise:

* **baseline** — every query re-federates: always live, always paying
  the full network cost;
* **views** — a view-answering engine with one hand-defined rollup view
  plus the auto-materialization advisor (`auto_materialize=True`),
  invalidated through the EAI broker as writes land.

Every query's rows are compared between the two engines, so the speedup
is measured at *identical answers*: view serves must be semantically
indistinguishable from live federation. Refresh work (the "cost of
building the warehouse") is charged to the views engine — both seconds
and bytes — via the manager's own refresh path, so the headline is the
end-to-end win, not just the hit-path win.
"""

import datetime

from repro.bench import BenchConfig, build_enterprise
from repro.eai import MessageBroker
from repro.federation import EngineConfig, FederatedEngine
from repro.netsim import SimClock
from repro.views import RefreshPolicy
from repro.views.invalidation import ChangeNotifier

ROUNDS = 24
WRITE_EVERY = 6  # a write (order + ticket) lands every this many rounds

#: the hand-defined warehouse view: counts at (status, product_id) grain,
#: answering coarser COUNT dashboards by rollup (integer-exact)
ROLLUP_VIEW = (
    "SELECT status, product_id, COUNT(*) AS n "
    "FROM orders GROUP BY status, product_id"
)

#: the dashboard mix — repeated verbatim, so the advisor sees repeats
DASHBOARD = (
    "SELECT status, COUNT(*) AS n FROM orders GROUP BY status",
    "SELECT status, SUM(total) AS revenue FROM orders GROUP BY status",
    "SELECT segment, COUNT(*) AS n FROM customers GROUP BY segment",
    "SELECT paid, SUM(amount) AS billed FROM invoices GROUP BY paid",
    "SELECT state, COUNT(*) AS n FROM tickets GROUP BY state",
)


def build_engines(fixture):
    """Two engines over the fixture's (shared) databases."""
    clock = SimClock()
    baseline = FederatedEngine(fixture.catalog(), EngineConfig(clock=clock))
    viewed = FederatedEngine(
        fixture.catalog(),
        EngineConfig(clock=clock, views=True, auto_materialize=True),
    )
    # INTERVAL policy: a broker-dirtied view re-warehouses on next serve
    viewed.views.define_materialized(
        "mv_order_counts",
        ROLLUP_VIEW,
        policy=RefreshPolicy.INTERVAL,
        interval_s=1e9,
    )
    broker = MessageBroker()
    viewed.attach_invalidation(broker)
    notifier = ChangeNotifier(broker)
    sales = viewed.catalog.sources["sales"].db
    support = viewed.catalog.sources["support"].db
    notifier.watch("orders", sales.table("orders"))
    notifier.watch("tickets", support.table("tickets"))
    return clock, baseline, viewed, notifier


def charge_refreshes(viewed, ledger):
    """Route the manager's refresh queries through a cost ledger."""
    inner = viewed.views._query

    def tracked(sql):
        result = inner(sql)
        ledger["seconds"] += result.elapsed_seconds
        ledger["bytes"] += result.metrics.summary()["wire_bytes"]
        ledger["refreshes"] += 1
        return result

    viewed.views._query = tracked


def test_a11_view_answering(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    clock, baseline, viewed, notifier = build_engines(fixture)
    refresh_ledger = {"seconds": 0.0, "bytes": 0, "refreshes": 0}
    charge_refreshes(viewed, refresh_ledger)

    totals = {
        "base_seconds": 0.0,
        "base_bytes": 0,
        "view_seconds": 0.0,
        "view_bytes": 0,
    }
    hits = stale_serves = fallbacks = mismatches = queries = 0
    next_id = 10_000_000
    for round_no in range(1, ROUNDS + 1):
        if round_no % WRITE_EVERY == 0:
            sales = viewed.catalog.sources["sales"].db
            support = viewed.catalog.sources["support"].db
            sales.table("orders").insert(
                (next_id, 1, 1, datetime.date(2024, 1, 1), 1, 2.5, "open")
            )
            support.table("tickets").insert(
                (next_id, 1, datetime.date(2024, 1, 1), 2, "open", "slow dashboard")
            )
            next_id += 1
            notifier.poll()  # broker -> manager: dependents go dirty
        for sql in DASHBOARD:
            live = baseline.query(sql)
            served = viewed.query(sql)
            queries += 1
            totals["base_seconds"] += live.elapsed_seconds
            totals["base_bytes"] += live.metrics.summary()["wire_bytes"]
            totals["view_seconds"] += served.elapsed_seconds
            totals["view_bytes"] += served.metrics.summary()["wire_bytes"]
            hits += served.metrics.view_hits
            stale_serves += served.metrics.view_stale_serves
            fallbacks += served.metrics.view_fallbacks
            if live.relation.sorted().rows != served.relation.sorted().rows:
                mismatches += 1
            clock.advance(served.elapsed_seconds)

    view_total_s = totals["view_seconds"] + refresh_ledger["seconds"]
    view_total_bytes = totals["view_bytes"] + refresh_ledger["bytes"]
    speedup = totals["base_seconds"] / view_total_s
    bytes_ratio = totals["base_bytes"] / max(view_total_bytes, 1)
    rows_identical = int(mismatches == 0)
    auto_views = len(viewed.view_selector.owned_views())

    record_experiment(
        "A11",
        "a view-answering engine with broker invalidation and an "
        "auto-materialization advisor beats per-query live federation by "
        ">=2x on a repeat-heavy dashboard mix while returning "
        "row-identical answers, with refresh costs charged to the views side",
        ["engine", "seconds", "wire_bytes", "view_hits", "fallbacks"],
        [
            ("baseline", f"{totals['base_seconds']:.4f}", totals["base_bytes"], 0, 0),
            ("views", f"{view_total_s:.4f}", view_total_bytes, hits, fallbacks),
        ],
        notes=(
            f"{queries} dashboard queries over {ROUNDS} rounds, a write every "
            f"{WRITE_EVERY} rounds; 1 hand-defined rollup view + "
            f"{auto_views} advisor-created views; "
            f"{refresh_ledger['refreshes']} refreshes costing "
            f"{refresh_ledger['seconds']:.4f}s / {refresh_ledger['bytes']} bytes "
            f"charged to the views engine; {stale_serves} stale serves"
        ),
        metrics={
            "speedup": round(speedup, 4),
            "bytes_ratio": round(bytes_ratio, 4),
            "base_seconds": round(totals["base_seconds"], 6),
            "view_seconds": round(view_total_s, 6),
            "base_bytes": totals["base_bytes"],
            "view_bytes": view_total_bytes,
            "view_hits": hits,
            "view_fallbacks": fallbacks,
            "stale_serves": stale_serves,
            "refreshes": refresh_ledger["refreshes"],
            "auto_views": auto_views,
            "rows_identical": rows_identical,
            "queries": queries,
        },
        gates={
            "speedup_at_least_2x": ("speedup", ">=", 2.0),
            "rows_identical": ("rows_identical", "==", 1),
            "views_actually_used": ("view_hits", ">=", queries // 2),
            "advisor_materialized": ("auto_views", ">=", 1),
        },
        headline={"metric": "speedup", "direction": "up"},
    )

    assert rows_identical == 1
    assert speedup >= 2.0, (speedup, totals, refresh_ledger)
