"""GAV mediation tests: mediated names unfold inside `engine.query(text)`."""

import pytest

from repro.common.errors import PlanError, SchemaError
from repro.federation import FederatedEngine
from repro.sql.shape import Bound

from tests.federation_fixtures import build_catalog


def build_mediator():
    catalog = build_catalog()
    catalog.define(
        "customer360",
        "SELECT c.id AS cust_id, c.name AS name, c.city AS city, o.total AS total, "
        "o.status AS status "
        "FROM customers c JOIN orders o ON c.id = o.cust_id",
    )
    catalog.define(
        "sf_customers",
        "SELECT c.id AS id, c.name AS name FROM customers c WHERE c.city = 'SF'",
    )
    catalog.define(
        "big_sf_orders",
        "SELECT v.cust_id AS cust_id, v.total AS total FROM customer360 v "
        "WHERE v.city = 'SF' AND v.total > 50",
    )
    return FederatedEngine(catalog), catalog


class TestUnfolding:
    def test_resolve_virtual_schema(self):
        _, catalog = build_mediator()
        schema = catalog.resolve_table("customer360")
        assert schema.names == ["cust_id", "name", "city", "total", "status"]

    def test_resolve_base_table_passthrough(self):
        _, catalog = build_mediator()
        assert catalog.resolve_table("orders").names == [
            "id", "cust_id", "total", "status",
        ]

    def test_simple_unfold_executes(self):
        engine, _ = build_mediator()
        result = engine.query("SELECT name FROM sf_customers")
        names = set(result.relation.column_values("name"))
        assert names == {"cust1", "cust3", "cust5", "cust7"}

    def test_join_view_unfold(self):
        engine, _ = build_mediator()
        result = engine.query(
            "SELECT v.name, v.total FROM customer360 v WHERE v.total > 130"
        )
        assert len(result.relation) == len([i for i in range(1, 41) if i * 3.5 > 130])

    def test_nested_view_unfold(self):
        engine, _ = build_mediator()
        result = engine.query("SELECT cust_id, total FROM big_sf_orders")
        for row in result.relation.rows:
            assert row[1] > 50

    def test_view_filter_pushes_into_sources(self):
        engine, _ = build_mediator()
        plan = engine.prepare("SELECT v.name FROM customer360 v WHERE v.city = 'NY'")
        # its constants, as a run of the plan sends them
        fetch_sqls = [str(Bound(f.stmt, plan.values)) for f in plan.fetches]
        assert any("city" in sql and "NY" in sql for sql in fetch_sqls), fetch_sqls

    def test_view_joined_with_base_table(self):
        engine, _ = build_mediator()
        result = engine.query(
            "SELECT s.name, r.region FROM sf_customers s "
            "JOIN customers c ON s.id = c.id JOIN regions r ON c.city = r.city"
        )
        assert set(row[1] for row in result.relation.rows) == {"west"}

    def test_aggregate_over_view(self):
        engine, _ = build_mediator()
        result = engine.query(
            "SELECT v.city, COUNT(*) AS n FROM customer360 v GROUP BY v.city"
        )
        counts = dict(result.relation.rows)
        assert counts["SF"] + counts["NY"] == 40

    def test_cyclic_view_rejected(self):
        catalog = build_catalog()
        catalog.define("a", "SELECT x.id FROM b x")
        catalog.define("b", "SELECT y.id FROM a y")
        with pytest.raises(PlanError, match="cyclic|deep"):
            FederatedEngine(catalog).query("SELECT id FROM a")

    def test_redefine_view(self):
        engine, catalog = build_mediator()
        sql = "SELECT name FROM sf_customers"
        assert "cust1" in engine.query(sql).relation.column_values("name")
        catalog.define("sf_customers", "SELECT c.id AS id, c.name AS name FROM customers c WHERE c.city = 'NY'")
        result = engine.query(sql)  # not the plan cached under the old definition
        assert set(result.relation.column_values("name")) == {
            "cust2", "cust4", "cust6", "cust8",
        }

    def test_drop_view(self):
        engine, catalog = build_mediator()
        engine.query("SELECT name FROM sf_customers")
        catalog.drop("sf_customers")
        assert "sf_customers" not in catalog.definitions
        with pytest.raises(SchemaError):
            engine.query("SELECT name FROM sf_customers")
        with pytest.raises(SchemaError):
            catalog.drop("sf_customers")

    def test_a_name_is_taken_once_across_tables_and_definitions(self):
        engine, catalog = build_mediator()
        with pytest.raises(SchemaError, match="source"):
            catalog.define("orders", "SELECT c.id FROM customers c")
        assert catalog.has_table("orders") and not catalog.has_table("customer360")
        assert "customer360" not in catalog.table_names()
        assert engine.planner.cost_model._table_stats("customer360") is None
