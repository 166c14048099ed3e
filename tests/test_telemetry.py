"""The telemetry plane: instruments, windows, SLOs, health, alerts, exports.

The invariants under test mirror the plane's contract: it is strictly
observe-only (an engine with telemetry attached answers byte-identically
to one without), everything lives on simulated time, and every export is
a deterministic function of the seeded run that produced it.
"""

import json

import pytest

from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import ErrorRate, FaultInjector, Outage, SimClock
from repro.sched import QueryOutcome, QueryRequest
from repro.telemetry import (
    DEGRADED,
    DOWN,
    HEALTHY,
    NULL_TELEMETRY,
    AlertManager,
    Ewma,
    HealthModel,
    HealthPolicy,
    MetricsRegistry,
    SloPolicy,
    SloTracker,
    TelemetryPlane,
    ThresholdRule,
    TimeSeries,
    ZScoreRule,
    resolve_telemetry,
    sparkline,
)
from repro.trace import QueryScoreboard, SourceStats

from tests.federation_fixtures import build_catalog

JOIN_Q = (
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.total > 100"
)


def outcome(status="ok", tenant="dashboard", queue_wait_s=0.1, service_s=0.5,
            dispatch_index=0, deadline_missed=False, finish_s=1.0):
    return QueryOutcome(
        request=QueryRequest(sql="SELECT 1", tenant=tenant),
        status=status,
        dispatch_index=dispatch_index,
        queue_wait_s=queue_wait_s,
        service_s=service_s,
        deadline_missed=deadline_missed,
        finish_s=finish_s,
    )


# -- instruments ----------------------------------------------------------------


class TestInstruments:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("eii_test_total", source="crm")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_identity_is_name_plus_sorted_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("eii_test_total", source="crm", outcome="ok")
        b = registry.counter("eii_test_total", outcome="ok", source="crm")
        assert a is b
        assert a.label_string() == '{outcome="ok",source="crm"}'
        assert registry.counter("eii_test_total", source="sales") is not a

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("eii_test_total")
        with pytest.raises(TypeError):
            registry.gauge("eii_test_total")

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("eii_depth")
        gauge.set(4)
        gauge.add(-3)
        assert gauge.value() == 1.0

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("eii_lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.cumulative_buckets() == [
            (0.1, 1), (1.0, 3), (float("inf"), 4)
        ]
        assert hist.count == 4 and hist.sum == pytest.approx(6.05)
        assert hist.quantile(0.5) == 1.0  # bucket upper bound
        assert hist.quantile(1.0) == 5.0  # the observed max
        assert hist.mean == pytest.approx(6.05 / 4)

    def test_empty_histogram_quantile_is_zero(self):
        assert MetricsRegistry().histogram("eii_lat").quantile(0.95) == 0.0

    def test_snapshot_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("eii_b_total").inc()
        registry.counter("eii_a_total", source="s").inc(2)
        snapshot = registry.snapshot()
        assert list(snapshot) == ['eii_a_total{source="s"}', "eii_b_total"]


# -- aligned-window time series -------------------------------------------------


class TestTimeSeries:
    def test_windows_align_and_gaps_close_empty(self):
        registry = MetricsRegistry()
        series = TimeSeries(registry, window_s=1.0, retention=16)
        registry.counter("eii_x_total").inc(3)
        assert series.roll(2.5) == 2  # windows [0,1) and [1,2)
        registry.counter("eii_x_total").inc(4)
        assert series.roll(5.0) == 3  # [2,3) with the delta, two gaps
        deltas = [w.deltas.get("eii_x_total", 0) for w in series.windows]
        assert deltas == [3, 0, 4, 0, 0]
        assert [w.start_s for w in series.windows] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_counter_gauge_histogram_deltas(self):
        registry = MetricsRegistry()
        series = TimeSeries(registry, window_s=1.0)
        registry.counter("eii_c_total").inc(2)
        registry.gauge("eii_g").set(7)
        registry.histogram("eii_h", buckets=(1.0,)).observe(0.5)
        series.roll(1.0)
        registry.counter("eii_c_total").inc(1)
        registry.histogram("eii_h", buckets=(1.0,)).observe(0.25)
        series.roll(2.0)
        first, second = series.windows
        assert first.deltas["eii_c_total"] == 2
        assert first.deltas["eii_g"] == 7  # gauge level change
        assert first.deltas["eii_h"] == {"count": 1, "sum": 0.5}
        assert second.deltas["eii_c_total"] == 1
        assert "eii_g" not in second.deltas  # unchanged level, no delta
        assert second.deltas["eii_h"] == {"count": 1, "sum": 0.25}

    def test_retention_ring_drops_oldest(self):
        series = TimeSeries(MetricsRegistry(), window_s=1.0, retention=3)
        series.roll(10.0)
        assert len(series.windows) == 3
        assert [w.index for w in series.windows] == [7, 8, 9]
        assert series.closed == 10

    def test_fast_forward_guard_skips_epoch_scale_gaps(self):
        # a wall clock handing roll() epoch seconds must not loop for
        # billions of windows — only the trailing `retention` close
        series = TimeSeries(MetricsRegistry(), window_s=1.0, retention=5)
        closed = series.roll(1.7e9)
        assert closed == 5
        assert len(series.windows) == 5
        assert series.windows[-1].end_s == pytest.approx(1.7e9)

    def test_series_is_dense(self):
        registry = MetricsRegistry()
        series = TimeSeries(registry, window_s=1.0)
        registry.counter("eii_x_total", source="crm").inc()
        series.roll(3.0)
        assert series.series("eii_x_total", source="crm") == [1.0, 0.0, 0.0]


# -- EWMA baselines -------------------------------------------------------------


class TestEwma:
    def test_zscore_quiet_until_min_samples(self):
        ewma = Ewma(min_samples=3)
        ewma.update(1.0)
        ewma.update(1.0)
        assert ewma.zscore(100.0) == 0.0
        ewma.update(1.0)
        assert ewma.zscore(100.0) > 3.0

    def test_steady_signal_never_outlies(self):
        ewma = Ewma()
        for _ in range(20):
            ewma.update(2.0)
        assert ewma.mean == pytest.approx(2.0)
        assert ewma.zscore(2.0) < 1.0


# -- alert lifecycle ------------------------------------------------------------


class TestAlerts:
    def test_firing_dedups_and_resolves(self):
        manager = AlertManager()
        manager.check("k", True, 1.0, message="bad")
        manager.check("k", True, 2.0)
        alert = manager.check("k", True, 3.0)
        assert alert.observations == 3
        assert manager.fired_total == 1
        manager.check("k", False, 4.0)
        assert manager.active == {}
        assert manager.history[0].state == "resolved"
        assert manager.history[0].resolved_at_s == 4.0

    def test_refire_after_resolve_is_a_new_alert(self):
        manager = AlertManager()
        manager.check("k", True, 1.0)
        manager.check("k", False, 2.0)
        manager.check("k", True, 3.0)
        assert manager.fired_total == 2
        assert manager.resolved_total == 1
        assert manager.first("k").fired_at_s == 1.0

    def test_threshold_rule(self):
        manager = AlertManager()
        rule = ThresholdRule("burn", bound=1.0)
        assert rule.evaluate(1.5, manager, 1.0) is True
        assert rule.evaluate(0.5, manager, 2.0) is False
        assert manager.history[0].state == "resolved"

    def test_zscore_rule_baseline_ignores_breaches(self):
        manager = AlertManager()
        rule = ZScoreRule("lat", z_threshold=3.0, min_samples=3)
        for at, value in enumerate((1.0, 1.0, 1.0, 1.0)):
            assert rule.evaluate(value, manager, float(at)) is False
        assert rule.evaluate(50.0, manager, 5.0) is True
        # the breach did not drag the baseline up
        assert rule.baseline.mean == pytest.approx(1.0)
        assert rule.evaluate(50.0, manager, 6.0) is True


# -- per-tenant SLOs ------------------------------------------------------------


class TestSlo:
    def test_error_burn_fires_and_resolves(self):
        alerts = AlertManager()
        tracker = SloTracker(
            alerts=alerts,
            default_policy=SloPolicy(error_budget=0.2, window=5),
        )
        tracker.observe(outcome(status="failed"), now=1.0)
        alert = alerts.first("slo.dashboard.error_burn")
        assert alert is not None and alert.firing
        assert tracker.status("dashboard").error_burn_rate == pytest.approx(5.0)
        # five clean outcomes push the failure out of the rolling window
        for step in range(5):
            tracker.observe(outcome(), now=2.0 + step)
        assert not alert.firing
        assert tracker.status("dashboard").ok

    def test_deadline_burn_counts_only_answered(self):
        tracker = SloTracker(
            default_policy=SloPolicy(deadline_miss_budget=0.25, window=10)
        )
        tracker.observe(outcome(deadline_missed=True), now=1.0)
        status = tracker.observe(outcome(), now=2.0)
        assert status.deadline_miss_rate == pytest.approx(0.5)
        assert "deadline_budget" in status.breached

    def test_p95_objective_and_render(self):
        tracker = SloTracker(
            default_policy=SloPolicy(p95_turnaround_s=0.5, window=10)
        )
        for _ in range(4):
            tracker.observe(outcome(queue_wait_s=1.0, service_s=1.0), now=1.0)
        status = tracker.status("dashboard")
        assert "p95_turnaround" in status.breached
        text = tracker.render()
        assert "dashboard" in text and "BREACH:p95_turnaround" in text

    def test_per_tenant_policies(self):
        tracker = SloTracker(
            policies={
                "batch": SloPolicy(
                    tenant="batch", error_budget=0.9, min_completeness=None
                )
            },
            default_policy=SloPolicy(error_budget=0.01, min_completeness=None),
        )
        for tenant in ("batch", "dashboard"):
            tracker.observe(outcome(tenant=tenant), now=1.0)
            tracker.observe(outcome(status="failed", tenant=tenant), now=1.0)
        # same 50% failure rate, different budgets: only the strict tenant
        # breaches its error budget
        assert tracker.status("batch").ok
        assert "error_budget" in tracker.status("dashboard").breached


# -- source health --------------------------------------------------------------


class TestHealth:
    def test_failure_rate_thresholds(self):
        model = HealthModel(alerts=AlertManager())
        model.close_window({"crm": SourceStats("crm", answers=1, failures=3)}, 1.0)
        assert model.state("crm") == DOWN
        model.close_window({"crm": SourceStats("crm", answers=2, failures=1)}, 2.0)
        assert model.state("crm") == DEGRADED
        model.close_window({"crm": SourceStats("crm", answers=4)}, 3.0)
        assert model.state("crm") == HEALTHY
        alert = model.alerts.first("health.crm")
        assert alert is not None and not alert.firing
        assert alert.resolved_at_s == 3.0

    def test_open_breaker_is_down_immediately(self):
        model = HealthModel()
        model.note_breaker("crm", "open", 1.25)
        assert model.state("crm") == DOWN
        assert model.first_transition_to("crm", DOWN) == (
            1.25, HEALTHY, DOWN, ("breaker_open",)
        )
        # while the breaker stays open, clean windows cannot recover it
        model.close_window({}, 2.0)
        assert model.state("crm") == DOWN
        model.note_breaker("crm", "closed", 3.0)
        model.close_window({}, 4.0)
        assert model.state("crm") == HEALTHY

    def test_latency_regression_degrades_against_own_baseline(self):
        model = HealthModel(policy=HealthPolicy(min_baseline_windows=2))
        for end in (1.0, 2.0, 3.0):
            model.close_window(
                {"mainframe": SourceStats("mainframe", answers=5, answer_seconds=0.5)},
                end,
            )
        assert model.state("mainframe") == HEALTHY
        model.close_window(
            {"mainframe": SourceStats("mainframe", answers=5, answer_seconds=5 * 2.0)}, 4.0
        )
        assert model.state("mainframe") == DEGRADED
        assert "latency" in model.sources["mainframe"].reasons

    def test_slow_but_steady_never_pages(self):
        # a constant 2s source is judged against itself, not a global bar
        model = HealthModel(alerts=AlertManager())
        for end in range(1, 8):
            model.close_window(
                {"mainframe": SourceStats("mainframe", answers=3, answer_seconds=6.0)},
                float(end),
            )
        assert model.state("mainframe") == HEALTHY
        assert model.alerts.first("health.mainframe") is None

    def test_untouched_windows_count_toward_recovery(self):
        model = HealthModel(policy=HealthPolicy(recovery_windows=2))
        model.close_window({"crm": SourceStats("crm", answers=0, failures=4)}, 1.0)
        assert model.state("crm") == DOWN
        model.close_window({}, 2.0)
        assert model.state("crm") == DOWN  # one clean window is not enough
        model.close_window({}, 3.0)
        assert model.state("crm") == HEALTHY


# -- the plane ------------------------------------------------------------------


class TestTelemetryPlane:
    def test_null_telemetry_is_inert(self):
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.on_query("ok", seconds=1.0)
        NULL_TELEMETRY.on_outcome(outcome())
        NULL_TELEMETRY.on_workload_end(99.0)
        assert NULL_TELEMETRY.tick(99.0) == 0

    def test_resolve_telemetry(self):
        assert resolve_telemetry(None) is NULL_TELEMETRY
        assert resolve_telemetry(False) is NULL_TELEMETRY
        assert isinstance(resolve_telemetry(True), TelemetryPlane)
        plane = TelemetryPlane()
        assert resolve_telemetry(plane) is plane

    def test_hooks_feed_registry_and_health_windows(self):
        plane = TelemetryPlane(window_s=1.0)
        board = QueryScoreboard()
        plane.attach_scoreboard(board)
        board.statement("crm", 0.2, 1, 128, 128, answer=("crm", 0.2, 128))
        board.count("crm", "failures")
        board.statement("crm", 0.0, 0, 0, 0, cache="hit")
        board.count("crm", "retries")
        plane.on_query("ok", seconds=0.3, rows=7)
        assert plane.tick(1.0) == 1
        registry = plane.registry
        assert registry.get(
            "eii_fetches_total", source="crm", outcome="ok"
        ).value() == 1
        assert registry.get(
            "eii_fetches_total", source="crm", outcome="error"
        ).value() == 1
        assert registry.get("eii_cache_hits_total", source="crm").value() == 1
        assert registry.get("eii_retries_total", source="crm").value() == 1
        assert registry.get("eii_query_rows_total").value() == 7
        # the closed window judged crm on its record: 1 ok / 1 failed = 50% failures
        assert plane.health.state("crm") == DEGRADED
        # the next window is judged on what changed since: nothing, so crm recovers
        assert plane.tick(2.0) == 1
        assert plane.health.state("crm") == HEALTHY

    def test_outcomes_drive_slo_and_stamp(self):
        plane = TelemetryPlane(
            default_slo=SloPolicy(error_budget=0.1, window=10)
        )
        plane.on_outcome(outcome(status="failed"), now=1.0)
        assert plane.slo.breaches >= 1
        assert plane.alerts.fired_total >= 1
        assert plane.registry.get(
            "eii_sched_outcomes_total", tenant="dashboard", status="failed"
        ).value() == 1

    def test_breaker_transition_feeds_health(self):
        plane = TelemetryPlane()
        plane.on_breaker_transition("support", "closed", "open", 2.5)
        assert plane.health.state("support") == DOWN
        assert plane.registry.get(
            "eii_breaker_transitions_total", source="support", to="open"
        ).value() == 1


# -- exporters ------------------------------------------------------------------


class TestExports:
    def build_plane(self):
        plane = TelemetryPlane(window_s=1.0)
        board = QueryScoreboard()
        plane.attach_scoreboard(board)
        board.statement("crm", 0.2, 1, 64, 64, answer=("crm", 0.2, 64))
        board.count("sales", "failures")
        plane.on_outcome(outcome(status="failed"), now=0.5)
        plane.tick(2.0)
        return plane

    def test_jsonl_lines_are_tagged_and_parseable(self):
        lines = [
            json.loads(line)
            for line in self.build_plane().export_jsonl().splitlines()
        ]
        kinds = [line["kind"] for line in lines]
        assert kinds == sorted(kinds, key=("window", "alert", "health", "slo").index)
        assert {"window", "health", "slo"} <= set(kinds)

    def test_prometheus_exposition_shape(self):
        text = self.build_plane().export_prometheus()
        assert "# TYPE eii_fetches_total counter" in text
        assert 'eii_fetches_total{outcome="ok",source="crm"} 1' in text
        assert "# TYPE eii_fetch_latency_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "eii_fetch_latency_seconds_count" in text
        assert 'eii_source_health{source="sales",state="down"} 1' in text
        assert 'eii_slo_error_burn_rate{tenant="dashboard"}' in text

    def test_exports_are_deterministic(self):
        a, b = self.build_plane(), self.build_plane()
        assert a.export_jsonl() == b.export_jsonl()
        assert a.export_prometheus() == b.export_prometheus()

    def test_sparkline_and_dashboard(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "  "
        assert len(sparkline(list(range(100)), width=32)) == 32
        text = self.build_plane().render_dashboard()
        assert "== telemetry ==" in text
        assert "-- source health --" in text
        assert "-- tenant SLOs --" in text
        assert "fetches/window" in text


# -- engine integration: strictly observe-only ----------------------------------


def engine_pair(seed=3):
    """Two engines over the same fixture catalog: telemetry off and on."""

    def build(telemetry):
        clock = SimClock()
        injector = FaultInjector(seed=seed, clock=clock)
        injector.script("crm", ErrorRate(0.3))
        catalog = build_catalog(injector=injector)
        return FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=1, resilience=ResiliencePolicy(max_attempts=3, backoff_jitter=0.0), telemetry=telemetry))

    return build(None), build(TelemetryPlane(window_s=0.5))


class TestEngineIntegration:
    def test_telemetry_never_changes_answers_or_metrics(self):
        plain, observed = engine_pair()
        for _ in range(6):
            a = plain.query(JOIN_Q)
            b = observed.query(JOIN_Q)
            assert a.relation.rows == b.relation.rows
            assert a.metrics.summary() == b.metrics.summary()
            assert a.elapsed_seconds == b.elapsed_seconds

    def test_engine_populates_fetch_query_and_retry_counters(self):
        _, observed = engine_pair()
        observed.query(JOIN_Q)
        registry = observed.telemetry.registry
        assert registry.get("eii_queries_total", status="ok").value() == 1
        fetch_ok = registry.get("eii_fetches_total", source="crm", outcome="ok")
        assert fetch_ok is not None and fetch_ok.value() >= 1
        latency = registry.get("eii_fetch_latency_seconds", source="crm")
        assert latency is not None and latency.count >= 1
        assert observed.telemetry.tick(1.0) >= 1

    def test_result_cache_hits_report_cached_status(self):
        from repro.cache import CacheHierarchy

        clock = SimClock()
        engine = FederatedEngine(build_catalog(), EngineConfig(clock=clock, parallel_workers=1, cache=CacheHierarchy(clock=clock), telemetry=TelemetryPlane()))
        engine.query(JOIN_Q)
        engine.query(JOIN_Q)
        registry = engine.telemetry.registry
        cached = registry.get("eii_queries_total", status="cached")
        assert cached is not None and cached.value() == 1
        # the result cache answered the repeat: the fetch cache missed once, never hit
        crm = engine.scoreboard.sources["crm"]
        assert (crm.cache_hits, crm.cache_misses) == (0, 1)
        assert registry.get("eii_cache_hits_total", source="crm") is None
        assert registry.get("eii_cache_misses_total", source="crm").value() == crm.cache_misses

    def test_unmanaged_failures_show_on_the_dashboard(self):
        """Without a resilience manager a failed call is
        ``eii_fetches_total{outcome="error"}``; the failures sparkline summed
        only ``eii_source_failures_total`` and stayed away."""
        from repro.common.errors import EIIError

        clock = SimClock()
        injector = FaultInjector(seed=1, clock=clock)
        injector.script("crm", Outage())
        plane = TelemetryPlane(window_s=0.5)
        engine = FederatedEngine(build_catalog(injector=injector), EngineConfig(
            clock=clock, parallel_workers=1, telemetry=plane
        ))
        for _ in range(3):
            with pytest.raises(EIIError):
                engine.query(JOIN_Q)
            clock.advance(0.5)
        plane.tick(clock())
        assert plane.registry.get("eii_fetches_total", source="crm", outcome="error")
        assert "failures/window: [" in plane.render_dashboard()

    def test_breaker_outage_flows_to_health(self):
        clock = SimClock()
        injector = FaultInjector(seed=1, clock=clock)
        injector.script("crm", Outage())
        plane = TelemetryPlane(window_s=0.5)
        engine = FederatedEngine(build_catalog(injector=injector), EngineConfig(clock=clock, parallel_workers=1, resilience=ResiliencePolicy(
                max_attempts=1, breaker_failure_threshold=2, failover=False
            ), telemetry=plane))
        from repro.common.errors import EIIError

        for _ in range(3):
            with pytest.raises(EIIError):
                engine.query(JOIN_Q)
        assert plane.health.state("crm") == DOWN
        alert = plane.alerts.first("health.crm")
        assert alert is not None and alert.firing
