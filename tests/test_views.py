"""View tests: names without rows vs materialized, refresh policies, staleness."""

import pytest

from repro.common.errors import SchemaError
from repro.views import RefreshPolicy, ViewManager

from tests.federation_fixtures import build_engine


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_manager():
    engine = build_engine()
    clock = FakeClock()
    manager = ViewManager(engine, clock=clock)
    return manager, engine, clock


OPEN_ORDERS = "SELECT id, total FROM orders WHERE status = 'open'"


class TestVirtualViews:
    READ = "SELECT * FROM open_orders"

    def test_virtual_reads_live(self):
        _, engine, _ = make_manager()
        engine.catalog.define("open_orders", OPEN_ORDERS)
        before = len(engine.query(self.READ).relation)
        sales = engine.catalog.sources["sales"]
        sales.db.table("orders").insert((999, 1, 5.0, "open"))
        after = len(engine.query(self.READ).relation)
        assert after == before + 1

    def test_virtual_staleness_zero(self):
        """A name without rows is never a stored answer: no provenance, no
        staleness to report, and nothing for the manager to read."""
        manager, engine, _ = make_manager()
        engine.catalog.define("open_orders", OPEN_ORDERS)
        assert engine.query(self.READ).view is None
        with pytest.raises(SchemaError):
            manager.read("open_orders")


class TestMaterializedViews:
    def test_manual_view_serves_stale_data(self):
        manager, engine, _ = make_manager()
        manager.define_materialized("open_orders", OPEN_ORDERS, RefreshPolicy.MANUAL)
        before = len(manager.read("open_orders"))
        engine.catalog.sources["sales"].db.table("orders").insert((999, 1, 5.0, "open"))
        assert len(manager.read("open_orders")) == before  # still stale
        manager.refresh("open_orders")
        assert len(manager.read("open_orders")) == before + 1

    def test_on_query_policy_always_fresh(self):
        manager, engine, _ = make_manager()
        manager.define_materialized("open_orders", OPEN_ORDERS, RefreshPolicy.ON_QUERY)
        before = len(manager.read("open_orders"))
        engine.catalog.sources["sales"].db.table("orders").insert((999, 1, 5.0, "open"))
        assert len(manager.read("open_orders")) == before + 1

    def test_interval_policy_refreshes_after_interval(self):
        manager, engine, clock = make_manager()
        manager.define_materialized(
            "open_orders", OPEN_ORDERS, RefreshPolicy.INTERVAL, interval_s=30
        )
        engine.catalog.sources["sales"].db.table("orders").insert((999, 1, 5.0, "open"))
        before = len(manager.read("open_orders"))  # within interval: stale
        clock.advance(31)
        after = len(manager.read("open_orders"))
        assert after == before + 1

    def test_staleness_tracking(self):
        manager, _, clock = make_manager()
        manager.define_materialized("open_orders", OPEN_ORDERS, RefreshPolicy.MANUAL)
        clock.advance(12)
        _, staleness = manager.read_with_staleness("open_orders")
        assert staleness == pytest.approx(12.0)

    def test_refresh_counters_and_cost(self):
        manager, _, _ = make_manager()
        view = manager.define_materialized("open_orders", OPEN_ORDERS)
        manager.refresh("open_orders")
        assert view.refresh_count == 2
        assert view.refresh_seconds > 0

    def test_serve_counter(self):
        manager, _, _ = make_manager()
        manager.define_materialized("open_orders", OPEN_ORDERS)
        manager.read("open_orders")
        manager.read("open_orders")
        assert manager.view("open_orders").serve_count == 2

    def test_deferred_first_refresh(self):
        manager, _, _ = make_manager()
        view = manager.define_materialized(
            "open_orders", OPEN_ORDERS, refresh_now=False
        )
        assert view.data is None
        manager.read("open_orders")
        assert view.data is not None


class TestRegistry:
    def test_duplicate_name_rejected(self):
        manager, engine, _ = make_manager()
        engine.catalog.define("v", OPEN_ORDERS)
        with pytest.raises(SchemaError):
            manager.define_materialized("v", OPEN_ORDERS)
        manager.define_materialized("mv", OPEN_ORDERS)
        for taken in ("mv", "orders"):  # by a view with rows, by a source table
            with pytest.raises(SchemaError):
                engine.catalog.define(taken, OPEN_ORDERS)
            with pytest.raises(SchemaError):
                manager.define_materialized(taken, OPEN_ORDERS)

    def test_drop(self):
        manager, engine, _ = make_manager()
        engine.catalog.define("v", OPEN_ORDERS)
        manager.drop("v")
        with pytest.raises(SchemaError):
            manager.drop("v")

    def test_names(self):
        manager, engine, _ = make_manager()
        engine.catalog.define("a", OPEN_ORDERS)
        manager.define_materialized("b", OPEN_ORDERS)
        assert manager.names() == ["a", "b"]
        assert manager.materialized_names() == ["b"]

    def test_refresh_all(self):
        manager, _, _ = make_manager()
        manager.define_materialized("a", OPEN_ORDERS)
        manager.define_materialized("b", OPEN_ORDERS)
        manager.refresh_all()
        assert manager.view("a").refresh_count == 2
        assert manager.view("b").refresh_count == 2
