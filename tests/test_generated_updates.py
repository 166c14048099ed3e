"""Tests for generated view-update sagas (mediator.updates)."""

import pytest

from repro.common.errors import PlanError
from repro.common.types import DataType as T
from repro.eai import ProcessEngine
from repro.federation import FederationCatalog
from repro.mediator.updates import UpdateSagaGenerator
from repro.sources import CsvSource, RelationalSource
from repro.storage import Database

VIEW_SQL = (
    "SELECT c.id AS cust_id, c.name AS name, c.tier AS tier, "
    "o.status AS order_status, o.total * 2 AS doubled "
    "FROM customers c JOIN orders o ON c.id = o.cust_id"
)


def build_world():
    crm = Database("crm")
    crm.create_table(
        "customers", [("id", T.INT), ("name", T.STRING), ("tier", T.STRING)],
        primary_key=["id"],
    )
    sales = Database("sales")
    sales.create_table(
        "orders",
        [("id", T.INT), ("cust_id", T.INT), ("status", T.STRING), ("total", T.FLOAT)],
        primary_key=["id"],
    )
    crm.table("customers").insert_many([(1, "ada", "gold"), (2, "bo", "silver")])
    sales.table("orders").insert_many(
        [(10, 1, "open", 5.0), (11, 1, "open", 7.0), (12, 2, "open", 9.0)]
    )
    catalog = FederationCatalog()
    catalog.register_source(RelationalSource("crm", crm))
    catalog.register_source(RelationalSource("sales", sales))
    catalog.define("customer360", VIEW_SQL)
    return crm, sales, catalog


class TestLineage:
    def test_bare_columns_have_lineage(self):
        _, _, catalog = build_world()
        generator = UpdateSagaGenerator(catalog)
        lineage = generator.lineage_of("customer360")
        assert lineage["tier"].table == "customers"
        assert lineage["order_status"].table == "orders"

    def test_computed_column_excluded(self):
        _, _, catalog = build_world()
        lineage = UpdateSagaGenerator(catalog).lineage_of("customer360")
        assert "doubled" not in lineage

    def test_unknown_view_rejected(self):
        _, _, catalog = build_world()
        with pytest.raises(PlanError):
            UpdateSagaGenerator(catalog).lineage_of("ghost")


class TestGeneratedSaga:
    def run_update(self, assignments, key_value=1, fail_second=False):
        crm, sales, catalog = build_world()
        generator = UpdateSagaGenerator(catalog)
        saga = generator.generate("customer360", assignments, "cust_id", key_value)
        if fail_second and len(saga.steps) > 1:
            from repro.eai.process import Step

            steps = list(saga.steps)
            failing = Step("boom", lambda ctx: 1 / 0)
            steps.insert(1, failing)
            from repro.eai.process import ProcessDefinition

            saga = ProcessDefinition(saga.name, steps)
        result = ProcessEngine().run(saga)
        return crm, sales, result

    def test_cross_source_update_commits(self):
        crm, sales, result = self.run_update(
            {"tier": "platinum", "order_status": "expedited"}
        )
        assert result.succeeded
        assert len(result.executed) == 2  # one step per source table
        assert crm.table("customers").get(1)[2] == "platinum"
        statuses = [row[2] for row in sales.table("orders").rows() if row[1] == 1]
        assert statuses == ["expedited", "expedited"]
        # the other customer's rows are untouched
        assert crm.table("customers").get(2)[2] == "silver"

    def test_key_translates_through_join_graph(self):
        # updating only the sales side still routes by cust_id, not orders.id
        _, sales, result = self.run_update({"order_status": "held"})
        assert result.succeeded
        held = [row for row in sales.table("orders").rows() if row[2] == "held"]
        assert {row[1] for row in held} == {1}

    def test_failure_compensates_first_source(self):
        crm, sales, result = self.run_update(
            {"tier": "platinum", "order_status": "expedited"}, fail_second=True
        )
        assert result.status == "compensated"
        # the crm step ran first and was rolled back to the original image
        assert crm.table("customers").get(1)[2] == "gold"
        statuses = {row[2] for row in sales.table("orders").rows()}
        assert statuses == {"open"}

    def test_update_of_computed_column_rejected(self):
        _, _, catalog = build_world()
        generator = UpdateSagaGenerator(catalog)
        with pytest.raises(PlanError, match="computed"):
            generator.generate("customer360", {"doubled": 4}, "cust_id", 1)

    def test_non_updatable_source_rejected(self):
        crm, sales, catalog = build_world()
        sheet = CsvSource("sheet")
        sheet.add_table("flags", [("cust_id", T.INT), ("flag", T.STRING)], [(1, "x")])
        catalog.register_source(sheet)
        catalog.define(
            "flagged",
            "SELECT f.cust_id AS cust_id, f.flag AS flag FROM flags f",
        )
        generator = UpdateSagaGenerator(catalog)
        with pytest.raises(PlanError, match="not updatable"):
            generator.generate("flagged", {"flag": "y"}, "cust_id", 1)

    def test_missing_join_key_routing_rejected(self):
        crm, sales, catalog = build_world()
        catalog.define(
            "cross",
            "SELECT c.id AS cid, o.status AS status FROM customers c CROSS JOIN orders o",
        )
        generator = UpdateSagaGenerator(catalog)
        with pytest.raises(PlanError, match="join key"):
            generator.generate("cross", {"status": "x"}, "cid", 1)

    def test_zero_matching_rows_is_a_clean_noop(self):
        crm, sales, result = self.run_update({"tier": "vip"}, key_value=999)
        assert result.succeeded
        assert all(row[2] in ("gold", "silver") for row in crm.table("customers").rows())
