"""Tests for admission control and the mediator result cache."""

import pytest

from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import AdmissionError
from repro.federation import EngineConfig, FederatedEngine

from tests.federation_fixtures import build_catalog

CHEAP = "SELECT name FROM customers WHERE id = 1"
EXPENSIVE = (
    "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAdmissionControl:
    def test_cheap_query_admitted(self):
        engine = FederatedEngine(build_catalog(), EngineConfig(admission_budget_s=10.0))
        assert len(engine.query(CHEAP).relation) == 1

    def test_expensive_query_rejected_with_prediction(self):
        engine = FederatedEngine(build_catalog(), EngineConfig(admission_budget_s=1e-6))
        with pytest.raises(AdmissionError) as excinfo:
            engine.query(EXPENSIVE)
        assert excinfo.value.predicted_seconds is not None
        assert excinfo.value.predicted_seconds > 1e-6

    def test_no_budget_admits_everything(self):
        engine = FederatedEngine(build_catalog())
        assert len(engine.query(EXPENSIVE).relation) == 40

    def test_prediction_orders_queries_sensibly(self):
        engine = FederatedEngine(build_catalog())
        cheap_prediction = engine.predict_elapsed(engine.planner.plan(CHEAP))
        costly_prediction = engine.predict_elapsed(engine.planner.plan(EXPENSIVE))
        assert cheap_prediction < costly_prediction

    def test_rejected_query_touches_no_source(self):
        catalog = build_catalog()
        engine = FederatedEngine(catalog, EngineConfig(admission_budget_s=1e-9))
        before = list(catalog.sources["sales"].query_log)
        with pytest.raises(AdmissionError):
            engine.query(EXPENSIVE)
        assert list(catalog.sources["sales"].query_log) == before


class TestResultCache:
    def make(self, ttl=60.0):
        clock = FakeClock()
        cache = CacheHierarchy(
            CacheConfig(fetch_enabled=False, result_ttl_s=ttl), clock
        )
        engine = FederatedEngine(build_catalog(), EngineConfig(cache=cache, clock=clock))
        return engine, clock

    def test_second_read_served_from_cache(self):
        engine, _ = self.make()
        first = engine.query(CHEAP)
        second = engine.query(CHEAP)
        assert not first.from_cache
        assert second.from_cache
        assert second.relation.rows == first.relation.rows
        assert second.elapsed_seconds == 0.0

    def test_cache_hit_issues_no_source_queries(self):
        engine, _ = self.make()
        engine.query(CHEAP)
        crm = engine.catalog.sources["crm"]
        count_before = len(crm.query_log)
        engine.query(CHEAP)
        assert len(crm.query_log) == count_before

    def test_ttl_expiry_re_executes(self):
        engine, clock = self.make(ttl=30.0)
        engine.query(CHEAP)
        clock.now = 31.0
        result = engine.query(CHEAP)
        assert not result.from_cache

    def test_distinct_queries_cached_separately(self):
        engine, _ = self.make()
        engine.query(CHEAP)
        other = engine.query("SELECT name FROM customers WHERE id = 2")
        assert not other.from_cache

    def test_cache_off_by_default(self):
        engine = FederatedEngine(build_catalog())
        engine.query(CHEAP)
        assert not engine.query(CHEAP).from_cache

    def test_non_string_queries_bypass_cache(self):
        engine, _ = self.make()
        from repro.sql.parser import parse_select

        stmt = parse_select(CHEAP)
        engine.query(stmt)
        assert not engine.query(stmt).from_cache
