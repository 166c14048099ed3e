"""Cache × failure interactions: the hierarchy must never hide or cause loss.

Invariants under test, per the resilience design:

* a fetch served from cache bypasses the breaker entirely — a hit neither
  trips nor resets breaker state, and costs zero source calls;
* a retried-then-successful fetch writes its cache entry exactly once;
* a failed fetch (or failed bind-join chunk) writes nothing — failures
  cannot poison the shared fetch store;
* a fetch answered by a *replica* is not written under the primary's key;
* serving a cache hit while the primary and every replica are down is
  allowed, but annotated as possibly stale.
"""

import pytest

from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import InjectedFaultError, SourceError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import FaultInjector, Outage, SimClock, Transient

from tests.federation_fixtures import altered, build_catalog

CUSTOMERS_Q = "SELECT c.id, c.name FROM customers c"
OTHER_CRM_Q = "SELECT c.city FROM customers c WHERE c.id = 1"
BIND_Q = (
    "SELECT c.name, cr.score FROM customers c "
    "JOIN credit cr ON cr.cust_id = c.id"
)


def fetch_caching_engine(policy=None, seed=0, with_replicas=False):
    """Engine with the fetch level on and the result level off, so every
    repeat query exercises the fetch store rather than whole-result reuse."""
    clock = SimClock()
    injector = FaultInjector(seed=seed, clock=clock)
    catalog = build_catalog(injector=injector, with_replicas=with_replicas)
    cache = CacheHierarchy(CacheConfig(result_enabled=False), clock=clock)
    engine = FederatedEngine(catalog, EngineConfig(clock=clock, cache=cache, resilience=policy))
    return engine, injector, clock


class TestRetrySuccessCachesOnce:
    def test_eventual_success_writes_exactly_one_entry(self):
        engine, injector, _ = fetch_caching_engine(
            ResiliencePolicy(max_attempts=4)
        )
        injector.script("crm", Transient(2))
        first = engine.query(CUSTOMERS_Q)
        assert first.metrics.retries == 2
        assert len(engine.cache.fetches) == 1
        calls_after_first = injector.calls("crm")
        second = engine.query(CUSTOMERS_Q)
        assert second.relation.rows == first.relation.rows
        assert second.metrics.fetch_cache_hits == 1
        assert injector.calls("crm") == calls_after_first  # served from cache

    def test_failed_fetch_writes_nothing(self):
        engine, injector, _ = fetch_caching_engine(
            ResiliencePolicy(max_attempts=2, breaker_failure_threshold=None)
        )
        injector.script("crm", Outage())
        with pytest.raises(SourceError):
            engine.query(CUSTOMERS_Q)
        assert len(engine.cache.fetches) == 0


class TestCacheHitsBypassBreakers:
    def test_hit_costs_no_source_call_and_leaves_breaker_alone(self):
        policy = ResiliencePolicy(
            max_attempts=1, breaker_failure_threshold=1, breaker_cooldown_s=1e9,
        )
        engine, injector, _ = fetch_caching_engine(policy)
        engine.query(CUSTOMERS_Q)  # healthy: primes the fetch cache
        injector.script("crm", Outage())
        with pytest.raises(InjectedFaultError):
            engine.query(OTHER_CRM_Q)  # different statement: must hit crm
        assert engine.resilience.breaker("crm").state.value == "open"
        calls_before = injector.calls("crm")

        result = engine.query(CUSTOMERS_Q)  # cached: survives the outage
        assert len(result.relation) == 8
        assert injector.calls("crm") == calls_before
        # the hit neither tripped nor reset the breaker
        assert result.breaker_states["crm"] == "open"

    def test_hit_with_every_access_path_down_is_annotated_stale(self):
        policy = ResiliencePolicy(
            max_attempts=1, breaker_failure_threshold=1, breaker_cooldown_s=1e9,
        )
        engine, injector, _ = fetch_caching_engine(policy)
        engine.query(CUSTOMERS_Q)
        injector.script("crm", Outage())
        with pytest.raises(InjectedFaultError):
            engine.query(OTHER_CRM_Q)

        result = engine.query(CUSTOMERS_Q)
        assert result.metrics.stale_cache_hits == 1
        assert "customers" in result.completeness.stale_tables
        assert "stale" in result.explain()

    def test_hit_is_not_stale_while_a_replica_is_healthy(self):
        policy = ResiliencePolicy(
            max_attempts=1, breaker_failure_threshold=1, breaker_cooldown_s=1e9,
        )
        engine, injector, _ = fetch_caching_engine(policy, with_replicas=True)
        engine.query(CUSTOMERS_Q)  # healthy: primes the fetch cache
        injector.script("crm", Outage())
        mid = engine.query(OTHER_CRM_Q)  # crm fails -> breaker opens -> standby answers
        assert mid.metrics.failovers == 1
        assert engine.resilience.breaker("crm").state.value == "open"
        # the cached entry could still be re-validated via the standby, so
        # serving it is not a staleness event
        result = engine.query(CUSTOMERS_Q)
        assert result.metrics.fetch_cache_hits == 1
        assert result.metrics.stale_cache_hits == 0
        assert result.completeness.stale_tables == []


class TestFailoverAndCacheCoherence:
    def test_replica_served_fetch_is_not_cached_under_primary_key(self):
        engine, injector, _ = fetch_caching_engine(
            ResiliencePolicy(max_attempts=1, breaker_failure_threshold=1),
            with_replicas=True,
        )
        injector.script("crm", Outage())
        result = engine.query(CUSTOMERS_Q)
        assert len(result.relation) == 8
        assert result.metrics.failovers >= 1
        assert len(engine.cache.fetches) == 0  # nothing written for crm's key

    def test_primary_recovery_caches_again(self):
        engine, injector, clock = fetch_caching_engine(
            ResiliencePolicy(
                max_attempts=1, breaker_failure_threshold=1,
                breaker_cooldown_s=5.0,
            ),
            with_replicas=True,
        )
        injector.script("crm", Outage(start_s=0.0, end_s=4.0))
        engine.query(CUSTOMERS_Q)  # served by the standby
        assert len(engine.cache.fetches) == 0
        clock.advance(10.0)  # cooldown elapses AND the outage window ends
        result = engine.query(CUSTOMERS_Q)
        assert result.metrics.failovers == 0
        assert len(engine.cache.fetches) == 1  # primary answered: cached now


class TestBindJoinChunkIsolation:
    def chunked_plan(self, engine, max_inlist=3):
        plan = engine.planner.plan(BIND_Q)
        assert plan.bind_joins, "expected a bind join against the web service"
        for at in range(len(plan.bind_joins)):  # 8 keys -> 3 component calls
            plan = altered(plan, plan.bind_joins[at], max_inlist=max_inlist)
        return plan

    def test_failed_chunk_fails_query_but_poisons_nothing(self):
        engine, injector, _ = fetch_caching_engine()
        plan = self.chunked_plan(engine)
        # second bind-join call (call index 1) dies; others are healthy
        injector.script("creditsvc", Outage(start_call=1, end_call=2))
        with pytest.raises(InjectedFaultError):
            engine.execute_plan(plan)
        # chunk 1 (and the driver fetch) are cached; the dead chunk is not
        cached_before_retry = len(engine.cache.fetches)
        assert cached_before_retry >= 1

        healthy = engine.execute_plan(self.chunked_plan(engine))
        reference = FederatedEngine(build_catalog()).query(BIND_Q)
        assert sorted(healthy.relation.rows) == sorted(reference.relation.rows)
        # the rerun reused every previously-cached chunk: only the chunks
        # that never succeeded hit the service again
        assert healthy.metrics.fetch_cache_hits == cached_before_retry
        assert injector.calls("creditsvc") == 4  # 2 in run one, 2 in run two
