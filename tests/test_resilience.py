"""Engine-level fault tolerance: retries, failover, degradation, telemetry.

Every scenario scripts faults through a seeded `FaultInjector` on a
`SimClock`, runs a real federated query, and checks the answer against
the same query on a healthy catalog — resilience must change *whether*
the query survives, never *what* it returns.
"""

import pytest

from repro.common.errors import (
    CircuitOpenError,
    EIIError,
    InjectedFaultError,
    SourceError,
    SourceTimeoutError,
)
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.federation.planner import FederatedPlanner
from repro.federation.resilience import ResilienceManager
from repro.netsim import (
    FaultInjector,
    LatencySpike,
    Outage,
    SimClock,
    Transient,
)

from tests.federation_fixtures import build_catalog

JOIN_Q = (
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.total > 100"
)
UNION_Q = "SELECT city FROM customers UNION ALL SELECT status FROM orders"
LEFT_Q = "SELECT c.name, r.region FROM customers c LEFT JOIN regions r ON c.city = r.city"
BIND_Q = (
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE c.city = 'SF'"
)
BIND_LEFT_Q = (
    "SELECT c.name, cr.score FROM customers c "
    "LEFT JOIN credit cr ON cr.cust_id = c.id"
)


def reference(query):
    return sorted(FederatedEngine(build_catalog()).query(query).relation.rows)


def faulty_engine(policy=None, seed=3, with_replicas=False, **engine_kwargs):
    clock = SimClock()
    injector = FaultInjector(seed=seed, clock=clock)
    catalog = build_catalog(injector=injector, with_replicas=with_replicas)
    engine = FederatedEngine(catalog, EngineConfig(clock=clock, resilience=policy or ResiliencePolicy(), **engine_kwargs))
    return engine, injector, clock


class TestRetries:
    def test_transient_errors_are_retried_to_the_exact_answer(self):
        engine, injector, _ = faulty_engine(ResiliencePolicy(max_attempts=4))
        injector.script("crm", Transient(2))
        result = engine.query(JOIN_Q)
        assert sorted(result.relation.rows) == reference(JOIN_Q)
        assert result.metrics.retries == 2
        assert result.metrics.source_failures == 2
        assert result.metrics.backoff_seconds > 0
        assert result.completeness is not None and result.completeness.complete
        assert not result.is_partial

    def test_backoff_charges_simulated_time_not_wall_time(self):
        engine, injector, clock = faulty_engine(
            ResiliencePolicy(max_attempts=3, backoff_base_s=1.0, backoff_jitter=0.0)
        )
        injector.script("crm", Transient(2))
        result = engine.query(JOIN_Q)
        # two backoffs: 1.0 + 2.0 simulated seconds, on collector and clock
        assert result.metrics.backoff_seconds == pytest.approx(3.0)
        assert clock.now() == pytest.approx(3.0)

    def test_exhausted_retries_surface_the_injected_error(self):
        engine, injector, _ = faulty_engine(ResiliencePolicy(max_attempts=3))
        injector.script("crm", Outage())
        with pytest.raises(InjectedFaultError, match="crm"):
            engine.query(JOIN_Q)
        assert injector.calls("crm") == 3

    def test_trickling_source_hits_the_fetch_timeout(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=2, fetch_timeout_s=0.5, failover=False)
        )
        injector.script("sales", LatencySpike(extra_s=5.0))
        with pytest.raises(SourceTimeoutError) as err:
            engine.query(JOIN_Q)
        assert err.value.source == "sales"
        assert err.value.timeout_s == 0.5

    def test_outage_window_heals_after_backoff_advances_the_clock(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=5, backoff_base_s=2.0, backoff_jitter=0.0)
        )
        # down for the first 3 simulated seconds; backoff walks past it
        injector.script("crm", Outage(start_s=0.0, end_s=3.0))
        result = engine.query(JOIN_Q)
        assert sorted(result.relation.rows) == reference(JOIN_Q)
        assert result.metrics.retries >= 1


class TestFailover:
    def test_open_breaker_fails_over_to_replica(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=2, breaker_failure_threshold=2),
            with_replicas=True,
        )
        injector.script("crm", Outage())
        result = engine.query(JOIN_Q)
        assert sorted(result.relation.rows) == reference(JOIN_Q)
        assert result.metrics.failovers >= 1
        assert result.breaker_states["crm"] == "open"
        assert result.breaker_states["crm_standby"] == "closed"

    def test_failover_rebinds_renamed_replica_tables(self):
        """crm_standby spells `customers` as `customers_v2`; the rebound
        component query must still resolve every qualified column."""
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=1, breaker_failure_threshold=1),
            with_replicas=True,
        )
        injector.script("crm", Outage())
        q = "SELECT c.name FROM customers c WHERE c.city = 'SF'"
        result = engine.query(q)
        assert sorted(result.relation.rows) == reference(q)
        queried = set(result.metrics.source_queries)
        assert "crm_standby" in queried

    def test_replica_served_bind_chunk_names_the_replica(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=1), with_replicas=True,
            semijoin="force",
        )
        injector.script("sales", Outage())
        result = engine.query(BIND_Q)
        assert result.plan.bind_joins[0].source.name == "sales"
        assert sorted(result.relation.rows) == reference(BIND_Q)
        assert result.metrics.failovers >= 1
        assert result.completeness.summary()["sources_answered"] == [
            "crm", "sales_standby",
        ]

    def test_replica_outage_too_exhausts_all_candidates(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=1, breaker_failure_threshold=None),
            with_replicas=True,
        )
        injector.script("crm", Outage())
        injector.script("crm_standby", Outage())
        with pytest.raises(SourceError):
            engine.query(JOIN_Q)

    def test_failover_disabled_by_policy(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=1, failover=False),
            with_replicas=True,
        )
        injector.script("crm", Outage())
        with pytest.raises(InjectedFaultError):
            engine.query(JOIN_Q)
        assert injector.calls("crm_standby") == 0

    def test_subsequent_queries_short_circuit_on_open_breaker(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(
                max_attempts=1, breaker_failure_threshold=1,
                breaker_cooldown_s=1e9, failover=False,
            )
        )
        injector.script("crm", Outage())
        with pytest.raises(InjectedFaultError):
            engine.query(JOIN_Q)
        calls_after_first = injector.calls("crm")
        with pytest.raises(CircuitOpenError):
            engine.query(JOIN_Q)
        # the breaker rejected the call before it reached the source
        assert injector.calls("crm") == calls_after_first


class TestPartialResults:
    def test_union_arm_degrades_to_annotated_partial(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=2), partial_results=True
        )
        injector.script("sales", Outage())
        result = engine.query(UNION_Q)
        healthy = reference(UNION_Q)
        surviving = sorted(result.relation.rows)
        assert result.is_partial
        assert result.completeness.skipped_sources() == ["sales"]
        assert 0.0 < result.completeness.missing_fraction() < 1.0
        # the surviving arm is intact: exactly the customers' cities
        assert surviving == sorted(r for r in healthy if r[0] in ("SF", "NY"))
        assert result.metrics.degraded_fetches >= 1
        assert "completeness" in result.explain()

    def test_left_join_enrichment_degrades_to_nulls(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=2), partial_results=True
        )
        injector.script("files", Outage())
        result = engine.query(LEFT_Q)
        assert result.is_partial
        assert len(result.relation) == 8  # every customer survives
        assert all(row[1] is None for row in result.relation.rows)

    def test_left_bind_join_probe_degrades_to_nulls(self):
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=2), partial_results=True
        )
        injector.script("creditsvc", Outage())
        result = engine.query(BIND_LEFT_Q)
        assert result.is_partial
        assert len(result.relation) == 8
        assert all(row[1] is None for row in result.relation.rows)
        assert "creditsvc" in result.completeness.skipped_sources()

    def test_fully_skipped_bind_join_is_not_counted_as_answered(self):
        """A source none of whose statements returned rows did not answer,
        and its probe weighs the missing fraction once, not per chunk."""
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=2), partial_results=True
        )
        injector.script("creditsvc", Outage())
        summary = engine.query(BIND_LEFT_Q).completeness.summary()
        assert summary["sources_answered"] == ["crm"]
        assert summary["sources_skipped"] == ["creditsvc"]
        assert summary["est_missing_fraction"] == 0.5

    def test_bind_join_weight_is_split_across_chunks_by_key_share(self):
        clock = SimClock()
        injector = FaultInjector(seed=3, clock=clock)
        catalog = build_catalog(injector=injector)
        engine = FederatedEngine(catalog, EngineConfig(
            clock=clock,
            resilience=ResiliencePolicy(max_attempts=1),
            partial_results=True,
            planner=FederatedPlanner(catalog, max_inlist=4),  # 8 keys, 2 chunks
        ))
        injector.script("creditsvc", Outage(end_call=1))  # first chunk only
        result = engine.query(BIND_LEFT_Q)
        scores = [row[1] for row in sorted(result.relation.rows)]
        assert scores == [None] * 4 + [650, 660, 670, 680]
        summary = result.completeness.summary()
        assert summary["sources_answered"] == ["creditsvc", "crm"]
        assert summary["sources_skipped"] == ["creditsvc"]
        # crm 8 rows + credit 8 rows estimated, half of credit missing
        assert summary["est_missing_fraction"] == 0.25

    def test_inner_join_branch_is_essential_and_still_fails(self):
        """partial_results must never fabricate rows: an inner join with a
        dead side cannot degrade, it must raise."""
        engine, injector, _ = faulty_engine(
            ResiliencePolicy(max_attempts=2), partial_results=True
        )
        injector.script("sales", Outage())
        with pytest.raises(EIIError):
            engine.query(JOIN_Q)

    def test_healthy_run_is_marked_complete(self):
        engine, _, _ = faulty_engine(partial_results=True)
        result = engine.query(JOIN_Q)
        assert not result.is_partial
        assert result.completeness.complete
        assert result.completeness.missing_fraction() == 0.0

    def test_partial_results_off_fails_instead_of_degrading(self):
        engine, injector, _ = faulty_engine(ResiliencePolicy(max_attempts=2))
        injector.script("files", Outage())
        with pytest.raises(EIIError):
            engine.query(LEFT_Q)


class TestPrefetchFailureDiscipline:
    """Fetches run in order on the caller; the first failure stops them, every
    started fetch's metrics are kept, and that error is raised."""

    def query_failing_once(self, workers):
        clock = SimClock()
        injector = FaultInjector(seed=1, clock=clock)
        catalog = build_catalog(injector=injector)
        injector.script("crm", Outage())
        engine = FederatedEngine(catalog, EngineConfig(parallel_workers=workers, clock=clock))
        return engine, injector

    @pytest.mark.parametrize("workers", [1, 4])
    def test_error_is_deterministic_across_runs(self, workers):
        errors = []
        for _ in range(3):
            engine, _ = self.query_failing_once(workers)
            with pytest.raises(SourceError) as err:
                engine.query(JOIN_Q)
            errors.append(str(err.value))
        assert len(set(errors)) == 1

    def test_completed_sibling_metrics_survive_the_failure(self):
        engine, injector = self.query_failing_once(workers=4)
        plan = engine.planner.plan(JOIN_Q)
        with pytest.raises(SourceError):
            engine.execute_plan(plan)
        # crm died, but the sales fetch that completed in parallel must
        # still be accounted (the pre-fix engine dropped all collectors)
        assert injector.calls("sales") <= 1  # never started twice

    def test_a_failed_first_fetch_starts_no_later_one(self):
        """Four simulated slots, the first fetch's source down: the second
        fetch never starts, whatever the run, and the error carries the
        failed round trip."""
        errors = []
        for _ in range(3):
            clock = SimClock()
            injector = FaultInjector(seed=1, clock=clock)
            engine = FederatedEngine(
                build_catalog(injector=injector), EngineConfig(parallel_workers=4, clock=clock)
            )
            assert [f.source.name for f in engine.planner.plan(JOIN_Q).fetches] == ["sales", "crm"]
            injector.script("sales", Outage())
            with pytest.raises(InjectedFaultError, match="sales") as err:
                engine.query(JOIN_Q)
            assert injector.calls("crm") == 0
            assert err.value.metrics.source_queries == {"sales": 1}
            assert err.value.metrics.simulated_seconds > 0
            errors.append(str(err.value))
        assert len(set(errors)) == 1

    def test_sibling_metrics_merged_when_failure_is_not_first(self):
        """Serial prefetch, failure in the SECOND fetch: the first fetch's
        completed work must survive into the merged collector (the pre-fix
        engine dropped every collector as soon as any fetch raised)."""
        from repro.federation.execution import Execution
        from repro.netsim import MetricsCollector

        clock = SimClock()
        injector = FaultInjector(seed=1, clock=clock)
        catalog = build_catalog(injector=injector)
        engine = FederatedEngine(catalog, EngineConfig(parallel_workers=1, clock=clock))
        plan = engine.planner.plan(JOIN_Q)
        assert [f.source.name for f in plan.fetches] == ["sales", "crm"]
        injector.script("crm", Outage())  # sales healthy, crm down
        metrics = MetricsCollector(network=engine.network)
        execution = Execution(engine, plan, metrics, plan.values)
        with pytest.raises(InjectedFaultError, match="crm"):
            execution.prefetch(plan.fetches)
        assert metrics.source_queries.get("sales") == 1
        assert metrics.rows_shipped > 0


class TestTelemetry:
    def test_breaker_states_and_resilience_counters_in_summary(self):
        engine, injector, _ = faulty_engine(ResiliencePolicy(max_attempts=3))
        injector.script("crm", Transient(1))
        result = engine.query(JOIN_Q)
        summary = result.metrics.summary()
        assert summary["retries"] == 1
        assert summary["source_failures"] == 1
        assert result.breaker_states == {"crm": "closed", "sales": "closed"}
        assert "breakers:" in result.explain()

    def test_healthy_summary_omits_resilience_counters(self):
        engine = FederatedEngine(build_catalog())
        result = engine.query(JOIN_Q)
        summary = result.metrics.summary()
        assert "retries" not in summary and "failovers" not in summary

    def test_manager_can_be_shared_across_engines(self):
        clock = SimClock()
        manager = ResilienceManager(
            ResiliencePolicy(max_attempts=1, breaker_failure_threshold=1,
                             breaker_cooldown_s=1e9, failover=False),
            clock=clock,
        )
        injector = FaultInjector(seed=0, clock=clock)
        catalog = build_catalog(injector=injector)
        injector.script("crm", Outage())
        first = FederatedEngine(catalog, EngineConfig(clock=clock, resilience=manager))
        with pytest.raises(SourceError):
            first.query(JOIN_Q)
        # a second engine sharing the manager sees the open breaker
        second = FederatedEngine(catalog, EngineConfig(clock=clock, resilience=manager))
        with pytest.raises(CircuitOpenError):
            second.query(JOIN_Q)
