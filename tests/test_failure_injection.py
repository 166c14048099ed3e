"""Failure-injection tests: how the stack behaves when pieces break.

Failures are scripted through `repro.netsim.FaultInjector` (seeded RNG +
simulated clock), so every scenario here replays bit-for-bit. The first
half pins the *default* engine's fail-fast contract; the rest covers the
circuit-breaker state machine and the retry path that a `ResiliencePolicy`
adds on top.
"""

import pytest

from repro.common.errors import (
    CapabilityError,
    CircuitOpenError,
    InjectedFaultError,
    ReformulationError,
    SchemaError,
    SourceError,
)
from repro.common.types import DataType as T
from repro.federation import (
    CircuitBreaker,
    FederatedEngine,
    FederationCatalog,
    ResilienceManager,
    ResiliencePolicy,
)
from repro.federation.execution import Recorder
from repro.federation.resilience import BreakerState
from repro.netsim import (
    FaultInjector,
    MetricsCollector,
    Outage,
    SimClock,
    Transient,
)
from repro.sources import RelationalSource, WebServiceSource
from repro.storage import Database
from repro.telemetry import TelemetryPlane
from repro.trace import QueryScoreboard

from tests.federation_fixtures import build_catalog


def flaky_source(name, db, fail_after=0, injector=None):
    """A relational source that starts failing after `fail_after` queries.

    Built on `FaultInjector`: the hand-rolled failure counter is now an
    `Outage(start_call=fail_after)` schedule, and the injector (returned
    alongside the source) is the hook tests use to "restart" the source
    (`injector.clear(name)`) or count its calls (`injector.calls(name)`).
    """
    injector = injector or FaultInjector(seed=0)
    injector.script(name, Outage(start_call=fail_after, message="connection reset"))
    return injector.wrap(RelationalSource(name, db)), injector


def tiny_db(table, columns, rows):
    db = Database("tiny")
    db.create_table(table, columns)
    db.table(table).insert_many(rows)
    return db


class TestSourceFailures:
    def test_source_error_propagates_with_source_name(self):
        db = tiny_db("t", [("id", T.INT)], [(1,)])
        catalog = FederationCatalog()
        source, _ = flaky_source("flaky", db, fail_after=0)
        catalog.register_source(source)
        engine = FederatedEngine(catalog)
        with pytest.raises(SourceError, match="flaky"):
            engine.query("SELECT id FROM t")

    def test_injected_fault_is_a_typed_source_error(self):
        db = tiny_db("t", [("id", T.INT)], [(1,)])
        catalog = FederationCatalog()
        source, _ = flaky_source("flaky", db, fail_after=0)
        catalog.register_source(source)
        with pytest.raises(InjectedFaultError) as err:
            FederatedEngine(catalog).query("SELECT id FROM t")
        assert err.value.source == "flaky"

    def test_failure_in_one_branch_fails_whole_query(self):
        stable = tiny_db("a", [("id", T.INT)], [(1,)])
        broken = tiny_db("b", [("id", T.INT)], [(1,)])
        catalog = FederationCatalog()
        catalog.register_source(RelationalSource("stable", stable))
        source, _ = flaky_source("broken", broken, fail_after=0)
        catalog.register_source(source)
        engine = FederatedEngine(catalog)
        with pytest.raises(SourceError):
            engine.query("SELECT a.id FROM a JOIN b ON a.id = b.id")

    def test_recovery_after_transient_failure(self):
        db = tiny_db("t", [("id", T.INT)], [(1,)])
        catalog = FederationCatalog()
        source, injector = flaky_source("flaky", db, fail_after=1)
        catalog.register_source(source)
        engine = FederatedEngine(catalog)
        assert len(engine.query("SELECT id FROM t").relation) == 1
        with pytest.raises(SourceError):
            engine.query("SELECT id FROM t")
        injector.clear("flaky")  # "the DBA restarted it"
        assert len(engine.query("SELECT id FROM t").relation) == 1
        assert injector.calls("flaky") == 3

    def test_access_revoked_mid_session(self):
        catalog = build_catalog()
        engine = FederatedEngine(catalog)
        assert engine.query("SELECT COUNT(*) FROM customers").relation.rows == [(8,)]
        catalog.sources["crm"].capabilities.allows_external_queries = False
        with pytest.raises(SourceError, match="external queries"):
            engine.query("SELECT COUNT(*) FROM customers")

    def test_webservice_handler_exception_surfaces(self):
        def broken_handler(key):
            raise ValueError("upstream 500")

        service = WebServiceSource(
            "svc", "echo", [("k", T.INT), ("v", T.INT)], "k", handler=broken_handler
        )
        from repro.sql.parser import parse_select

        with pytest.raises(ValueError, match="500"):
            service.execute_select(parse_select("SELECT * FROM echo WHERE k = 1"))


class TestCircuitBreakerStateMachine:
    """The closed → open → half-open → closed lifecycle, on a SimClock."""

    def make(self, **kwargs):
        clock = SimClock()
        defaults = dict(
            failure_threshold=3, cooldown_s=10.0, half_open_probes=1,
            success_threshold=1,
        )
        defaults.update(kwargs)
        return CircuitBreaker("src", clock=clock, **defaults), clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_is_clock_driven(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(9.999)
        assert not breaker.allow()
        clock.advance(0.001)
        assert breaker.allow()  # transitions to HALF_OPEN, reserves the probe
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_probe_accounting(self):
        breaker, clock = self.make(half_open_probes=2)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # both probe slots taken
        assert breaker.probe_available() is False  # and peeking agrees
        breaker.record_success()  # frees a slot and closes (threshold 1)
        assert breaker.state is BreakerState.CLOSED

    def test_probe_success_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(5.0)  # old cooldown would have long elapsed
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()

    def test_success_threshold_needs_multiple_probes(self):
        breaker, clock = self.make(half_open_probes=2, success_threshold=2)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_transitions_are_recorded_with_timestamps(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()
        breaker.record_success()
        assert [(a, b) for _, a, b in breaker.transitions] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        assert breaker.transitions[0][0] == 0.0
        assert breaker.transitions[1][0] == pytest.approx(10.0)

    def test_probe_available_has_no_side_effects(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.probe_available()
        assert breaker.state is BreakerState.OPEN  # peeking did not transition
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN


class TestRunGuarded:
    """ResilienceManager.run_guarded: retries, backoff, breaker gating —
    each reported once, through the statement's `Recorder`."""

    def test_retries_then_succeeds(self):
        clock = SimClock()
        manager = ResilienceManager(ResiliencePolicy(max_attempts=3), clock=clock)
        attempts = []

        def attempt():
            attempts.append(clock.now())
            if len(attempts) < 3:
                raise SourceError("flap")
            return "ok"

        metrics, plane = MetricsCollector(), TelemetryPlane()
        board = QueryScoreboard()
        plane.attach_scoreboard(board, managed=True)  # the plane reads the record
        record = Recorder(metrics, plane, board)
        assert manager.run_guarded("s", attempt, record) == "ok"
        assert len(attempts) == 3
        # backoff advanced the simulated clock between attempts
        assert attempts[1] > attempts[0] and attempts[2] > attempts[1]
        # ... and every failure and retry reached all four observers once
        assert (metrics.source_failures, metrics.retries) == (2, 2)
        assert (board.sources["s"].failures, board.sources["s"].retries) == (2, 2)
        assert metrics.backoff_seconds == metrics.simulated_seconds > 0
        assert [event.name for event in record.events] == [
            "source_failure", "retry", "source_failure", "retry",
        ]
        assert record.events[1].attrs["attempt"] == 1
        assert record.events[3].offset_s == pytest.approx(metrics.backoff_seconds)
        counters = plane.registry.snapshot()
        assert counters['eii_source_failures_total{source="s"}'] == 2
        assert counters['eii_retries_total{source="s"}'] == 2

    def test_exhausted_retries_raise_last_error(self):
        manager = ResilienceManager(ResiliencePolicy(max_attempts=2), clock=SimClock())

        def attempt():
            raise SourceError("still down")

        metrics = MetricsCollector()
        with pytest.raises(SourceError, match="still down"):
            manager.run_guarded("s", attempt, Recorder(metrics, scoreboard=QueryScoreboard()))
        # the last attempt is not followed by a backoff
        assert (metrics.source_failures, metrics.retries) == (2, 1)

    def test_capability_error_is_never_retried(self):
        manager = ResilienceManager(ResiliencePolicy(max_attempts=5), clock=SimClock())
        calls = []

        def attempt():
            calls.append(1)
            raise CapabilityError("source cannot run this query")

        metrics = MetricsCollector()
        with pytest.raises(CapabilityError):
            manager.run_guarded("s", attempt, Recorder(metrics, scoreboard=QueryScoreboard()))
        assert len(calls) == 1
        assert (metrics.source_failures, metrics.retries) == (0, 0)
        # planner-side failure must not poison the breaker
        assert manager.breaker("s").state is BreakerState.CLOSED

    def test_open_breaker_short_circuits_with_typed_error(self):
        clock = SimClock()
        manager = ResilienceManager(
            ResiliencePolicy(max_attempts=1, breaker_failure_threshold=2,
                             breaker_cooldown_s=100.0),
            clock=clock,
        )

        def attempt():
            raise SourceError("down")

        metrics, board = MetricsCollector(), QueryScoreboard()
        record = Recorder(metrics, scoreboard=board)
        for _ in range(2):
            with pytest.raises(SourceError):
                manager.run_guarded("s", attempt, record)
        with pytest.raises(CircuitOpenError, match="'s'"):
            manager.run_guarded("s", attempt, record)
        assert metrics.breaker_short_circuits == 1
        assert record.events[-1].name == "breaker.open"
        assert (board.sources["s"].failures, board.sources["s"].short_circuits) == (2, 1)

    def test_backoff_is_deterministic_per_seed(self):
        a = ResilienceManager(ResiliencePolicy(seed=7), clock=SimClock())
        b = ResilienceManager(ResiliencePolicy(seed=7), clock=SimClock())
        c = ResilienceManager(ResiliencePolicy(seed=8), clock=SimClock())
        seq_a = [a.backoff_delay(i) for i in range(4)]
        seq_b = [b.backoff_delay(i) for i in range(4)]
        seq_c = [c.backoff_delay(i) for i in range(4)]
        assert seq_a == seq_b
        assert seq_a != seq_c
        # exponential shape survives the jitter (jitter is ±25%)
        assert seq_a[1] > seq_a[0] * 1.3 and seq_a[2] > seq_a[1] * 1.3


class TestEmptyAndDegenerate:
    def test_empty_source_tables(self):
        db = tiny_db("t", [("id", T.INT), ("v", T.STRING)], [])
        catalog = FederationCatalog()
        catalog.register_source(RelationalSource("empty", db))
        engine = FederatedEngine(catalog)
        result = engine.query("SELECT COUNT(*) AS n, MAX(v) AS m FROM t")
        assert result.relation.rows == [(0, None)]

    def test_join_with_empty_side(self):
        left = tiny_db("a", [("id", T.INT)], [(1,), (2,)])
        right = tiny_db("b", [("id", T.INT)], [])
        catalog = FederationCatalog()
        catalog.register_source(RelationalSource("left", left))
        catalog.register_source(RelationalSource("right", right))
        engine = FederatedEngine(catalog)
        result = engine.query("SELECT a.id FROM a JOIN b ON a.id = b.id")
        assert len(result.relation) == 0

    def test_bind_join_with_no_driver_keys(self):
        catalog = build_catalog()
        engine = FederatedEngine(catalog)
        result = engine.query(
            "SELECT c.name, cr.score FROM customers c "
            "JOIN credit cr ON cr.cust_id = c.id WHERE c.id > 10000"
        )
        assert len(result.relation) == 0
        # no keys -> zero service invocations
        assert result.metrics.source_queries.get("creditsvc", 0) == 0

    def test_unknown_table_clean_error(self):
        engine = FederatedEngine(build_catalog())
        with pytest.raises(SchemaError, match="no federated table"):
            engine.query("SELECT * FROM ghosts")


class TestLavEngineIntegration:
    def build(self):
        from repro.mediator.lav import LavMapping, LavMediator

        db = Database("views")
        db.create_table("v_person", [("p", T.INT), ("name", T.STRING)])
        db.create_table("v_lives", [("p", T.INT), ("city", T.STRING)])
        db.table("v_person").insert_many([(1, "ada"), (2, "grace")])
        db.table("v_lives").insert_many([(1, "SF"), (2, "NY")])
        catalog = FederationCatalog()
        catalog.register_source(RelationalSource("src", db))
        mediator = LavMediator(
            [
                LavMapping.parse("v_person(P, Name) :- person(P, Name)"),
                LavMapping.parse("v_lives(P, City) :- lives(P, City)"),
            ]
        )
        columns = {"v_person": ["p", "name"], "v_lives": ["p", "city"]}
        return mediator, FederatedEngine(catalog), columns

    def test_answer_with_engine(self):
        mediator, engine, columns = self.build()
        answers = mediator.answer_with_engine(
            "q(Name, City) :- person(P, Name), lives(P, City)", engine, columns
        )
        assert answers == {("ada", "SF"), ("grace", "NY")}

    def test_answer_with_engine_no_rewriting(self):
        mediator, engine, columns = self.build()
        with pytest.raises(ReformulationError):
            mediator.answer_with_engine(
                "q(P) :- employed(P, E)", engine, columns
            )

    def test_answer_with_local_engine(self):
        """The same API runs against a plain LocalEngine."""
        from repro.engine import LocalEngine
        from repro.mediator.lav import LavMapping, LavMediator

        db = Database("local")
        db.create_table("v_person", [("p", T.INT), ("name", T.STRING)])
        db.table("v_person").insert_many([(1, "ada")])
        mediator = LavMediator(
            [LavMapping.parse("v_person(P, Name) :- person(P, Name)")]
        )
        answers = mediator.answer_with_engine(
            "q(Name) :- person(P, Name)",
            LocalEngine(db),
            {"v_person": ["p", "name"]},
        )
        assert answers == {("ada",)}
