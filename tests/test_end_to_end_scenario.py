"""Full-stack scenario: the panel's CRM story, every subsystem cooperating.

One test class walks the lifecycle a real EII deployment would see:
register sources → author a mediated view → serve dashboards through
materialized views with automatic invalidation → monitor the feed under a
data service agreement → consult the advisor → absorb a schema change and
measure the impact.
"""

import pytest

from repro.advisor import PersistenceAdvisor, WorkloadProfile
from repro.agreements import (
    AgreementMonitor,
    DataServiceAgreement,
    freshness_obligation,
    row_count_obligation,
)
from repro.bench import BenchConfig, build_enterprise
from repro.eai import MessageBroker
from repro.federation import FederatedEngine
from repro.metadata import (
    ChangeImpactAnalyzer,
    ElementRef,
    MappingArtifact,
    MetadataRegistry,
    SchemaChange,
)
from repro.views import ChangeNotifier, RefreshPolicy, ViewManager, wire_invalidation

VIEW_SQL = (
    "SELECT c.id AS cust_id, c.name AS name, c.city AS city, o.total AS total "
    "FROM customers c JOIN orders o ON c.id = o.cust_id"
)


@pytest.fixture
def world():
    fixture = build_enterprise(BenchConfig(scale=1))
    catalog = fixture.catalog(include_credit=False, include_docs=False)
    engine = FederatedEngine(catalog)
    catalog.define("customer360", VIEW_SQL)
    return fixture, engine


class TestLifecycle:
    def test_mediated_view_to_dashboard_to_invalidation(self, world):
        fixture, engine = world

        # 1. A dashboard definition over the mediated view.
        dash_sql = (
            "SELECT v.city, SUM(v.total) AS exposure FROM customer360 v "
            "GROUP BY v.city"
        )

        manager = ViewManager(engine)
        manager.define_materialized("dash", dash_sql, RefreshPolicy.MANUAL)
        baseline = {row[0]: row[1] for row in manager.read("dash").rows}
        assert baseline

        # 2. Wire automatic invalidation (the view depends on the source tables
        #    under the mediated name) and land a new order.
        broker = MessageBroker()
        dependencies = wire_invalidation(manager, broker)
        assert dependencies["dash"] == {"customer360", "customers", "orders"}
        notifier = ChangeNotifier(broker)
        orders = fixture.sales.table("orders")
        notifier.watch("orders", orders)

        target_city = fixture.crm.table("customers").get(1)[3]
        orders.insert((99_999, 1, 1, None, 1, 10_000.0, "open"))
        assert notifier.poll() == ["orders"]
        refreshed = {row[0]: row[1] for row in manager.read("dash").rows}
        assert refreshed[target_city] == pytest.approx(
            baseline[target_city] + 10_000.0
        )

        # 3. The feed runs under an agreement; a clean delivery is silent.
        monitor = AgreementMonitor(clock=lambda: 0.0)
        monitor.register(
            DataServiceAgreement(
                "dash_feed",
                provider="federation",
                consumer="ops",
                obligations=[freshness_obligation(600), row_count_obligation(3)],
            )
        )
        violations = monitor.evaluate(
            "dash_feed",
            {"staleness": manager.view("dash").staleness(0.0) and 0.0,
             "relation": manager.read("dash")},
        )
        assert violations == []

        # 4. The advisor endorses virtualization for this low-rate dashboard.
        advisor = PersistenceAdvisor()
        recommendation = advisor.decide(
            WorkloadProfile(
                name="ops_dash",
                queries_per_day=200,
                freshness_requirement_s=30,  # ops watches live operations
                rows_touched=1_200,
                rows_to_copy=1_200,
            )
        )
        assert recommendation.choice == "eii"
        assert recommendation.rule.startswith("V3")

        # 5. Schema evolution: the orders table drops a column; the impact
        #    analyzer points at exactly the artifacts that must be reworked.
        registry = MetadataRegistry()
        registry.register_source_schema(
            "sales", {"orders": ["id", "cust_id", "total", "status"]}
        )
        registry.register_artifact(
            MappingArtifact(
                "customer360",
                "gav_view",
                [ElementRef("sales", "orders", "cust_id"),
                 ElementRef("sales", "orders", "total")],
                authoring_cost=4.0,
            )
        )
        registry.register_artifact(
            MappingArtifact(
                "dash",
                "report",
                [ElementRef("sales", "orders", "total")],
                authoring_cost=1.0,
            )
        )
        report = ChangeImpactAnalyzer(registry).analyze(
            [SchemaChange("drop_column", ElementRef("sales", "orders", "total"))]
        )
        assert {item.artifact.name for item in report.items} == {
            "customer360", "dash",
        }
        assert report.total_cost == pytest.approx(5.0)

    def test_mediated_query_answers_match_direct_federation(self, world):
        _, engine = world
        mediated = engine.query(
            "SELECT v.name, v.total FROM customer360 v WHERE v.total > 4000"
        ).relation.sorted()
        direct = engine.query(
            "SELECT c.name, o.total FROM customers c JOIN orders o "
            "ON c.id = o.cust_id WHERE o.total > 4000"
        ).relation.sorted()
        assert mediated.rows == direct.rows
