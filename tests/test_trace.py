"""End-to-end tracing: span trees, EXPLAIN ANALYZE, scoreboards, exporters.

The invariants under test are the ones that make traces trustworthy:
spans live on *simulated* time and account for every simulated second and
every payload byte the `MetricsCollector` records; the same seed and
fault schedule serialize byte-for-byte identically; and the no-op tracer
changes neither results nor metrics.
"""

import json

import pytest

from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import FaultInjector, Outage, SimClock, Transient
from repro.trace import (
    NULL_TRACER,
    QueryScoreboard,
    Span,
    Trace,
    Tracer,
    analyzed_node_seconds,
    makespan,
    percentile,
)

from tests.federation_fixtures import build_catalog

JOIN_Q = (
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.total > 100"
)
BIND_Q = (
    "SELECT c.name, cr.score FROM customers c "
    "JOIN credit cr ON cr.cust_id = c.id"
)


def traced_engine(policy=None, seed=3, tracer=None, **engine_kwargs):
    """A single-worker faulty engine (workers=1 keeps backoff jitter and
    span order independent of thread scheduling)."""
    clock = SimClock()
    injector = FaultInjector(seed=seed, clock=clock)
    catalog = build_catalog(injector=injector)
    engine = FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=1, resilience=policy, tracer=tracer, **engine_kwargs))
    return engine, injector


# -- span / trace mechanics ----------------------------------------------------


class TestSpanMechanics:
    def test_makespan_list_schedules(self):
        assert makespan([], 4) == 0.0
        assert makespan([3.0, 1.0, 1.0], 1) == pytest.approx(5.0)
        assert makespan([3.0, 1.0, 1.0], 2) == pytest.approx(3.0)

    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.95) == 4.0

    def test_totals_serial_vs_parallel(self):
        trace = Trace("root")
        root = trace.root
        root.parallel_slots = 2
        for seconds in (3.0, 1.0, 1.0):
            child = root.child("c")
            child.self_seconds = seconds
        assert root.work_seconds() == pytest.approx(5.0)
        assert trace.finalize().elapsed_seconds() == pytest.approx(3.0)
        root.parallel_slots = None
        assert trace.finalize().elapsed_seconds() == pytest.approx(5.0)

    def test_layout_assigns_lanes_and_starts(self):
        trace = Trace("query")
        fan = trace.root.child("fan", parallel_slots=2)
        a, b, c = (fan.child(name) for name in "abc")
        a.self_seconds, b.self_seconds, c.self_seconds = 2.0, 1.0, 1.0
        trace.finalize()
        assert (a.start_s, a.lane) == (0.0, 0)
        assert (b.start_s, b.lane) == (0.0, 1)
        # c lands in the lane that frees up first (b's)
        assert (c.start_s, c.lane) == (1.0, 1)
        assert trace.elapsed_seconds() == pytest.approx(2.0)


# -- end-to-end span trees ------------------------------------------------------


class TestEndToEndTrace:
    def test_span_tree_under_faults(self):
        tracer = Tracer()
        engine, injector = traced_engine(
            ResiliencePolicy(max_attempts=4, backoff_jitter=0.0), tracer=tracer
        )
        injector.script("crm", Transient(2))
        result = engine.query(JOIN_Q)
        trace = result.trace
        assert trace is tracer.last and trace.finalized
        names = [span.name for span in trace.spans()]
        for expected in ("query", "parse", "plan", "prefetch", "assembly",
                         "final_transfer"):
            assert expected in names
        fetch_spans = trace.find_all("fetch:")
        assert {s.attrs["source"] for s in fetch_spans} == {"crm", "sales"}
        crm_span = next(s for s in fetch_spans if s.attrs["source"] == "crm")
        assert "SELECT" in crm_span.attrs["sql"]
        retries = [e for e in crm_span.events if e.name == "retry"]
        failures = [e for e in crm_span.events if e.name == "source_failure"]
        assert len(retries) == 2 and len(failures) == 2
        # events sit at increasing offsets on the simulated timeline
        offsets = [e.offset_s for e in crm_span.events]
        assert offsets == sorted(offsets)
        assert result.metrics.retries == 2

    def test_trace_elapsed_matches_result_elapsed(self):
        engine, _ = traced_engine(tracer=Tracer())
        for sql in (JOIN_Q, BIND_Q):
            result = engine.query(sql)
            assert result.trace.elapsed_seconds() == pytest.approx(
                result.elapsed_seconds, abs=1e-9
            )

    def test_span_work_and_bytes_account_for_metrics(self):
        engine, injector = traced_engine(
            ResiliencePolicy(max_attempts=3, backoff_jitter=0.0),
            tracer=Tracer(),
        )
        injector.script("sales", Transient(1))
        result = engine.query(BIND_Q)
        trace = result.trace
        metrics = result.metrics
        assert trace.work_seconds() == pytest.approx(
            metrics.simulated_seconds, abs=1e-9
        )
        assert trace.sum_attr("payload_bytes") == metrics.payload_bytes
        assert trace.sum_attr("wire_bytes") == metrics.wire_bytes

    def test_parallel_prefetch_layout_matches_engine_makespan(self):
        clock = SimClock()
        catalog = build_catalog()
        engine = FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=2, tracer=Tracer()))
        result = engine.query(JOIN_Q)
        assert result.trace.elapsed_seconds() == pytest.approx(
            result.elapsed_seconds, abs=1e-9
        )
        prefetch = result.trace.find("prefetch")
        assert prefetch.parallel_slots == 2

    def test_result_cache_hit_is_traced_not_executed(self):
        from repro.cache import CacheConfig, CacheHierarchy

        cache = CacheHierarchy(
            CacheConfig(fetch_enabled=False, result_ttl_s=60.0), SimClock()
        )
        engine, _ = traced_engine(tracer=Tracer(), cache=cache)
        engine.query(JOIN_Q)
        hit = engine.query(JOIN_Q)
        assert hit.from_cache
        assert hit.trace.root.attrs["result_cache"] == "hit"
        assert "cache.result_hit" in hit.trace.event_names()
        assert hit.trace.find("prefetch") is None
        assert "result cache" in hit.explain_analyze()

    def test_fetch_cache_annotations(self):
        from repro.cache import CacheConfig, CacheHierarchy

        clock = SimClock()
        engine = FederatedEngine(build_catalog(), EngineConfig(clock=clock, parallel_workers=1, cache=CacheHierarchy(
                CacheConfig(fetch_enabled=True, result_enabled=False), clock=clock
            ), tracer=Tracer()))
        engine.query(JOIN_Q)
        second = engine.query(JOIN_Q)
        cached = [
            s for s in second.trace.find_all("fetch:")
            if s.attrs.get("cache") == "hit"
        ]
        assert cached and all(s.attrs["payload_bytes"] == 0 for s in cached)
        assert "cache.hit" in second.trace.event_names()

    def test_cache_invalidation_becomes_session_event(self):
        from repro.cache import CacheConfig, CacheHierarchy

        tracer = Tracer()
        clock = SimClock()
        engine = FederatedEngine(build_catalog(), EngineConfig(clock=clock, cache=CacheHierarchy(
                CacheConfig(fetch_enabled=True, result_enabled=False), clock=clock
            ), tracer=tracer))
        engine.query(JOIN_Q)
        engine.invalidate_table("orders")
        assert any(
            name == "cache.invalidate" and attrs["table"] == "orders"
            for name, attrs in tracer.session_events
        )

    def test_engines_sharing_a_cache_each_record_their_own_invalidations(self):
        from repro.cache import CacheConfig, CacheHierarchy
        from repro.eai import MessageBroker
        from repro.eai.table_events import publish_table_changed

        clock = SimClock()
        cache = CacheHierarchy(
            CacheConfig(fetch_enabled=True, result_enabled=False), clock=clock
        )
        tracer = Tracer()
        traced = FederatedEngine(
            build_catalog(), EngineConfig(clock=clock, cache=cache, tracer=tracer)
        )
        # built last, untraced: it must not silence the first engine's tracer
        FederatedEngine(build_catalog(), EngineConfig(clock=clock, cache=cache))
        traced.query(JOIN_Q)
        broker = MessageBroker()
        traced.attach_invalidation(broker)
        publish_table_changed(broker, "orders", 2)
        assert list(tracer.session_events) == [
            ("cache.invalidate", {"table": "orders", "fetch": 1, "result": 0})
        ]

    def test_session_events_are_capped_like_traces(self):
        tracer = Tracer(keep=2)
        for table in ("a", "b", "c"):
            tracer.session_event("cache.invalidate", table=table)
        assert [attrs["table"] for _, attrs in tracer.session_events] == ["b", "c"]

    def test_a_query_sees_only_finished_traces(self):
        """A trace is listed when its query finishes: a source reading
        `engine.tracer.last` mid-query sees the previous query's trace,
        finalized, never the one still being written."""
        engine, _ = traced_engine(tracer=Tracer())
        first = engine.query(JOIN_Q).trace
        source = engine.catalog.source_of("customers")
        execute, seen = source.execute_select, []

        def reading(stmt, collector):
            seen.append(engine.tracer.last)
            return execute(stmt, collector)

        source.execute_select = reading
        second = engine.query(JOIN_Q).trace
        assert seen and all(trace is first for trace in seen)
        assert first.finalized
        assert list(engine.tracer.traces) == [first, second]
        assert engine.tracer.finished == 2

    def test_breaker_and_stale_events(self):
        from repro.cache import CacheConfig, CacheHierarchy
        from repro.common.errors import EIIError

        clock = SimClock()
        injector = FaultInjector(seed=1, clock=clock)
        tracer = Tracer()
        engine = FederatedEngine(build_catalog(injector=injector), EngineConfig(clock=clock, parallel_workers=1, cache=CacheHierarchy(
                CacheConfig(fetch_enabled=True, result_enabled=False), clock=clock
            ), resilience=ResiliencePolicy(
                max_attempts=1, breaker_failure_threshold=1, failover=False
            ), tracer=tracer))
        engine.query(JOIN_Q)  # warm the fetch cache
        injector.script("sales", Outage())
        with pytest.raises(EIIError):
            engine.query("SELECT status FROM orders")
        # cached fetch against the downed source is flagged stale
        stale = engine.query(JOIN_Q)
        assert "cache.stale_hit" in stale.trace.event_names()
        assert stale.metrics.stale_cache_hits >= 1


# -- EXPLAIN ANALYZE -----------------------------------------------------------


class TestExplainAnalyze:
    def test_per_node_seconds_sum_to_metrics_total(self):
        engine, injector = traced_engine(
            ResiliencePolicy(max_attempts=3, backoff_jitter=0.0),
            tracer=Tracer(),
        )
        injector.script("crm", Transient(1))
        for sql in (JOIN_Q, BIND_Q):
            result = engine.query(sql)
            assert analyzed_node_seconds(result) == pytest.approx(
                result.metrics.simulated_seconds, abs=1e-9
            )

    def test_analyze_flag_traces_without_engine_tracer(self):
        engine, _ = traced_engine()
        assert engine.tracer is NULL_TRACER
        result = engine.query(JOIN_Q, analyze=True)
        assert result.trace is not None and result.physical is not None
        text = result.explain_analyze()
        assert "EXPLAIN ANALYZE (simulated time)" in text
        assert "Fetch[crm]" in text and "% of work)" in text
        assert "assembly compute:" in text and "final transfer:" in text
        # the engine itself stays untraced
        assert engine.tracer is NULL_TRACER
        assert engine.query(JOIN_Q).trace is None

    def test_actual_rows_recorded_on_operators(self):
        engine, _ = traced_engine(tracer=Tracer())
        result = engine.query(JOIN_Q)
        assert result.physical.actual_rows == len(result.relation)
        assert "rows=" in result.explain_analyze()

    def test_untraced_result_explains_unavailable(self):
        engine, _ = traced_engine()
        result = engine.query(JOIN_Q)
        assert "unavailable" in result.explain_analyze()


# -- determinism & exporters ----------------------------------------------------


class TestDeterminismAndExport:
    def run_traced(self, seed=7, crm_failures=2):
        engine, injector = traced_engine(
            ResiliencePolicy(max_attempts=4, backoff_jitter=0.5),
            seed=seed,
            tracer=Tracer(),
        )
        injector.script("crm", Transient(crm_failures))
        injector.script("sales", Transient(1))
        result = engine.query(JOIN_Q)
        return result.trace

    def test_same_seed_same_faults_byte_identical_json(self):
        first = self.run_traced().to_json(indent=2)
        second = self.run_traced().to_json(indent=2)
        assert first == second
        assert json.loads(first)["name"] == "query"

    def test_different_fault_schedule_diverges(self):
        assert (
            self.run_traced(crm_failures=2).to_json()
            != self.run_traced(crm_failures=3).to_json()
        )

    def test_chrome_export_is_valid_trace_event_json(self):
        trace = self.run_traced()
        payload = json.loads(trace.to_chrome())
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        assert events, "expected at least one event"
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert complete and instants
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0
        assert all(e["dur"] >= 0 for e in complete)
        # retries made it out as instant events
        assert any(e["name"] == "retry" for e in instants)

    def test_to_dict_round_trips_through_json(self):
        trace = self.run_traced()
        data = json.loads(trace.to_json())
        assert data == trace.to_dict()


# -- zero-cost-when-off ---------------------------------------------------------


class TestNullTracerParity:
    def test_results_and_metrics_identical_with_and_without_tracing(self):
        def run(tracer):
            engine, injector = traced_engine(
                ResiliencePolicy(max_attempts=4, backoff_jitter=0.5),
                tracer=tracer,
            )
            injector.script("crm", Transient(2))
            return engine.query(JOIN_Q)

        untraced = run(None)
        traced = run(Tracer())
        assert untraced.trace is None and traced.trace is not None
        assert sorted(untraced.relation.rows) == sorted(traced.relation.rows)
        assert untraced.metrics.summary() == traced.metrics.summary()
        assert untraced.elapsed_seconds == pytest.approx(traced.elapsed_seconds)

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.session_event("noop")


# -- scoreboard -----------------------------------------------------------------


class TestScoreboard:
    def test_aggregates_across_queries(self):
        engine, injector = traced_engine(
            ResiliencePolicy(max_attempts=3, backoff_jitter=0.0),
            tracer=Tracer(),
        )
        injector.script("crm", Transient(1))
        for _ in range(3):
            engine.query(JOIN_Q)
        engine.query(BIND_Q)
        scoreboard = engine.scoreboard
        assert engine.tracer.finished == 4
        assert set(scoreboard.sources) >= {"crm", "sales"}
        crm = scoreboard.sources["crm"]
        assert crm.statements == 4 and crm.retries == 1
        assert crm.summary()["p95_s"] >= crm.summary()["p50_s"]
        shares = [scoreboard.share(name) for name in scoreboard.sources]
        assert sum(shares) == pytest.approx(1.0)
        assert scoreboard.remote_seconds() == pytest.approx(
            sum(s.seconds for s in scoreboard.sources.values())
        )

    def test_render_table(self):
        engine, _ = traced_engine(tracer=Tracer())
        engine.query(JOIN_Q)
        text = engine.scoreboard.render(engine.tracer.finished)
        assert "source" in text and "p95_s" in text and "share" in text
        assert "crm" in text and "%" in text
        assert "1 queries" in text

    def test_empty_scoreboard_renders_hint(self):
        assert "no traces" in QueryScoreboard().render(0)


# -- explain sections (FederatedResult.explain) ---------------------------------


class TestExplainSections:
    def test_sections_and_partial_completeness_line(self):
        engine, injector = traced_engine(
            ResiliencePolicy(max_attempts=1, backoff_jitter=0.0),
            partial_results=True,
        )
        injector.script("creditsvc", Outage())
        result = engine.query(
            "SELECT c.name, cr.score FROM customers c "
            "LEFT JOIN credit cr ON cr.cust_id = c.id"
        )
        text = result.explain()
        assert result.is_partial
        assert "metrics: " in text
        assert "resilience: " in text
        assert "completeness: PARTIAL — " in text
        assert "simulated elapsed:" in text

    def test_healthy_explain_omits_quiet_sections(self):
        engine, _ = traced_engine()
        text = engine.query(JOIN_Q).explain()
        assert "metrics: " in text
        assert "resilience: " not in text
        assert "cache: " not in text


# -- the hardened percentile helper (re-exported from repro.telemetry.stats) ----


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_single_sample_is_every_percentile(self):
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert percentile([7.0], fraction) == 7.0

    def test_nearest_rank_semantics(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0  # ceil(0.5 * 4) = rank 2
        assert percentile(values, 0.75) == 3.0
        assert percentile(values, 0.95) == 4.0

    def test_fraction_clamps_to_bounds(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, -0.5) == 1.0
        assert percentile(values, 2.0) == 3.0

    def test_input_order_is_irrelevant_and_unmutated(self):
        values = [9.0, 1.0, 5.0]
        assert percentile(values, 0.95) == percentile(sorted(values), 0.95)
        assert values == [9.0, 1.0, 5.0]

    def test_nan_fraction_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], float("nan"))
