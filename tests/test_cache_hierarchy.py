"""Tests for the three-level mediator cache threaded through the engine."""

import pytest

from repro.cache import CacheConfig, CacheHierarchy
from repro.common.types import DataType as T
from repro.eai import MessageBroker, ProcessEngine
from repro.federation import EngineConfig, FederatedEngine, FederationCatalog
from repro.mediator.updates import UpdateSagaGenerator
from repro.sources import RelationalSource
from repro.storage import Database
from repro.views.invalidation import ChangeNotifier

from tests.federation_fixtures import build_catalog

JOIN = "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
POINT = "SELECT name FROM customers WHERE id = 1"


def caching_engine(catalog=None, **config_kwargs):
    config_kwargs.setdefault("result_enabled", False)
    cache = CacheHierarchy(CacheConfig(**config_kwargs))
    engine = FederatedEngine(catalog or build_catalog(), EngineConfig(cache=cache))
    return engine, cache


class TestPlanCache:
    def test_repeat_query_skips_planning(self):
        engine, cache = caching_engine(fetch_enabled=False)
        first = engine.query(POINT)
        second = engine.query(POINT)
        assert first.metrics.plan_cache_hits == 0
        assert second.metrics.plan_cache_hits == 1
        assert second.relation.rows == first.relation.rows
        assert cache.plans.stats.hits == 1

    def test_normalized_spellings_share_one_plan(self):
        engine, cache = caching_engine(fetch_enabled=False)
        engine.query("SELECT name FROM customers WHERE id = 1")
        reformatted = engine.query("select name  from customers where id=1")
        assert reformatted.metrics.plan_cache_hits == 1
        assert len(cache.plans) == 1

    def test_select_ast_inputs_use_the_plan_cache(self):
        from repro.sql.parser import parse_select

        engine, _ = caching_engine(fetch_enabled=False)
        engine.query(POINT)
        result = engine.query(parse_select(POINT))
        assert result.metrics.plan_cache_hits == 1

    def test_plan_cache_entry_bound(self):
        engine, cache = caching_engine(fetch_enabled=False, plan_entries=3)
        for i in range(10):
            engine.query(f"SELECT name FROM customers WHERE id = {i}")
        assert len(cache.plans) <= 3

    def test_plan_cache_on_by_default(self):
        engine = FederatedEngine(build_catalog())
        engine.query(POINT)
        assert engine.query(POINT).metrics.plan_cache_hits == 1


class TestFetchCache:
    def test_repeat_query_reuses_component_fetches(self):
        engine, _ = caching_engine()
        crm = engine.catalog.sources["crm"]
        first = engine.query(JOIN)
        issued = len(crm.query_log)
        second = engine.query(JOIN)
        assert len(crm.query_log) == issued  # no new source round-trips
        assert second.metrics.fetch_cache_hits == 2  # customers + orders
        assert second.metrics.cache_seconds_saved > 0
        assert second.relation.sorted().rows == first.relation.sorted().rows
        assert not second.from_cache  # assembly still ran; only fetches reused

    def test_warm_execution_is_faster(self):
        engine, _ = caching_engine()
        cold = engine.query(JOIN)
        warm = engine.query(JOIN)
        # two plain fetches in parallel cold (9.3 ms), none warm (2.3 ms)
        assert warm.elapsed_seconds < cold.elapsed_seconds / 3

    def test_shared_fetches_across_different_queries(self):
        # Both queries push down the identical component SELECT for orders'
        # open rows; the second query reuses the first one's fetch.
        engine, cache = caching_engine()
        engine.query("SELECT id, total FROM orders WHERE status = 'open'")
        before = cache.fetches.stats.hits
        engine.query("SELECT id, total FROM orders WHERE status = 'open'")
        assert cache.fetches.stats.hits > before

    def test_hierarchy_shared_between_engines(self):
        catalog = build_catalog()
        cache = CacheHierarchy(CacheConfig(result_enabled=False))
        one = FederatedEngine(catalog, EngineConfig(cache=cache))
        two = FederatedEngine(catalog, EngineConfig(cache=cache))
        one.query(JOIN)
        result = two.query(JOIN)
        assert result.metrics.fetch_cache_hits == 2

    def test_bind_join_chunks_cached(self):
        engine, _ = caching_engine(catalog=build_catalog())
        engine.planner.semijoin = "force"
        sql = JOIN
        first = engine.query(sql)
        probed = first.plan.bind_joins[0].source.name if first.plan.bind_joins else None
        if probed is None:
            pytest.skip("planner chose no bind join under force?")
        issued = first.metrics.source_queries[probed]
        assert issued > 0
        second = engine.query(sql)
        assert second.metrics.source_queries[probed] == 0
        assert second.metrics.fetch_cache_hits >= issued

    def test_explain_surfaces_cache_telemetry(self):
        engine, _ = caching_engine()
        engine.query(JOIN)
        text = engine.query(JOIN).explain()
        assert "fetch_cache_hits=2" in text
        assert "cache_seconds_saved=" in text


class TestInvalidation:
    def test_table_write_evicts_dependent_fetches(self):
        catalog = build_catalog()
        engine, cache = caching_engine(catalog=catalog)
        broker = MessageBroker()
        cache.attach(broker)
        notifier = ChangeNotifier(broker)
        crm_db = catalog.sources["crm"].db
        notifier.watch_database(crm_db)

        engine.query(POINT)
        crm_db.table("customers").update_where(
            lambda row: row[0] == 1, lambda row: (row[0], "renamed", row[2])
        )
        notifier.poll()
        fresh = engine.query(POINT)
        assert fresh.metrics.fetch_cache_hits == 0
        assert fresh.relation.rows == [("renamed",)]

    def test_unrelated_table_write_keeps_entries(self):
        catalog = build_catalog()
        engine, cache = caching_engine(catalog=catalog)
        broker = MessageBroker()
        cache.attach(broker)
        engine.query(POINT)  # depends on customers only
        broker.publish("table.orders.changed", {"table": "orders", "version": 1})
        assert engine.query(POINT).metrics.fetch_cache_hits == 1

    def test_result_cache_evicted_too(self):
        catalog = build_catalog()
        cache = CacheHierarchy(CacheConfig())
        engine = FederatedEngine(catalog, EngineConfig(cache=cache))
        broker = MessageBroker()
        engine.attach_invalidation(broker)
        engine.query(POINT)
        assert engine.query(POINT).from_cache
        broker.publish("table.customers.changed", {"table": "customers", "version": 2})
        assert not engine.query(POINT).from_cache

    def test_engine_result_store_is_bounded(self):
        """Regression: FederatedEngine._cache grew one entry per query text."""
        cache = CacheHierarchy(CacheConfig(result_entries=4, fetch_enabled=False))
        engine = FederatedEngine(build_catalog(), EngineConfig(cache=cache))
        for i in range(20):
            engine.query(f"SELECT name FROM customers WHERE id = {i}")
        assert len(cache.results) <= 4


class TestMediatorWritePath:
    """A write through the generated-update saga must make stale reads
    impossible: dependent fetch- and result-level entries are evicted."""

    VIEW_SQL = (
        "SELECT c.id AS cust_id, c.name AS name, c.tier AS tier "
        "FROM customers c"
    )

    def build(self):
        crm = Database("crm")
        crm.create_table(
            "customers",
            [("id", T.INT), ("name", T.STRING), ("tier", T.STRING)],
            primary_key=["id"],
        )
        crm.table("customers").insert_many([(1, "ada", "gold"), (2, "bo", "silver")])
        catalog = FederationCatalog()
        catalog.register_source(RelationalSource("crm", crm))
        catalog.define("customer360", self.VIEW_SQL)
        broker = MessageBroker()
        cache = CacheHierarchy(CacheConfig())
        engine = FederatedEngine(catalog, EngineConfig(cache=cache))
        engine.attach_invalidation(broker)
        generator = UpdateSagaGenerator(catalog, broker=broker)
        return engine, cache, generator

    def test_saga_write_invalidates_fetch_and_result(self):
        engine, cache, generator = self.build()
        sql = "SELECT tier FROM customers WHERE id = 1"
        assert engine.query(sql).relation.rows == [("gold",)]
        assert engine.query(sql).from_cache  # both levels are warm

        saga = generator.generate("customer360", {"tier": "platinum"}, "cust_id", 1)
        result = ProcessEngine().run(saga)
        assert result.succeeded

        after = engine.query(sql)
        assert not after.from_cache
        assert after.metrics.fetch_cache_hits == 0
        assert after.relation.rows == [("platinum",)]

    def test_compensated_saga_also_invalidates(self):
        from repro.eai.process import ProcessDefinition, Step

        engine, cache, generator = self.build()
        sql = "SELECT tier FROM customers WHERE id = 1"
        engine.query(sql)
        saga = generator.generate("customer360", {"tier": "platinum"}, "cust_id", 1)
        steps = list(saga.steps) + [Step("boom", lambda ctx: 1 / 0)]
        outcome = ProcessEngine().run(ProcessDefinition(saga.name, steps))
        assert outcome.status == "compensated"
        # The write happened and was rolled back; either way the cache must
        # not serve the intermediate value.
        assert engine.query(sql).relation.rows == [("gold",)]


class TestMetricsMerge:
    def test_merge_folds_every_counter(self):
        from collections import Counter

        from repro.netsim.metrics import MetricsCollector

        a = MetricsCollector()
        b = MetricsCollector()
        b.record_transfer("crm", "hub", rows=3, payload_bytes=120)
        b.record_source_query("crm", seconds=0.5)
        b.fetch_cache_hits = 2
        b.cache_seconds_saved = 0.25
        a.merge(b)
        assert a.rows_shipped == 3
        assert a.payload_bytes == 120
        assert a.source_queries == Counter({"crm": 1})
        assert len(a.transfers) == 1
        assert a.fetch_cache_hits == 2  # new counters merge automatically
        assert a.cache_seconds_saved == 0.25
        assert a.simulated_seconds == pytest.approx(b.simulated_seconds)

    def test_merge_is_additive(self):
        from repro.netsim.metrics import MetricsCollector

        a = MetricsCollector()
        a.plan_cache_hits = 1
        b = MetricsCollector()
        b.plan_cache_hits = 2
        a.merge(b)
        assert a.plan_cache_hits == 3
