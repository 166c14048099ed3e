"""The engine's per-source record: one write site per source fact.

`engine.scoreboard` is written by the `Recorder` alone and read by the
shell's ``\\scoreboard``, the telemetry plane, its health model and the LPT
latency prediction.
Three regressions it fixes, then two oracles that hold the bodies it
replaced as their references:

* the span fold - `SourceStats.observe` over every finished fetch span, which
  fed the tracer's scoreboard;
* the plane's window accumulation - `SourceWindow` counts bumped in the
  telemetry hooks, which fed the health model (bumped here where the
  `Recorder` called those hooks);

over Q1-Q12 x {no fault, `Transient` with retries, `Outage` with and without a
resilience manager, `LatencySpike`}, failover off. Counts match exactly,
seconds within 1e-12. Last, eight threads sharing one engine leave the same
integer totals as the serial run.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.adaptive import AdaptiveContext, AdaptivePolicy
from repro.adaptive.scheduler import static_fetch_seconds
from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import EIIError, InjectedFaultError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.federation.execution import Recorder
from repro.netsim import FaultInjector, LatencySpike, Outage, SimClock, Transient
from repro.telemetry import TelemetryPlane
from repro.trace import Tracer
from repro.trace.scoreboard import LATENCY_HISTORY, QueryScoreboard

WINDOW_S = 0.05
THREADS = 8


@pytest.fixture(scope="module")
def fixture():
    return build_enterprise(BenchConfig(scale=1, seed=42))


# -- regressions -----------------------------------------------------------------------


def test_failures_without_a_manager_reach_the_scoreboard(fixture):
    """Three q4 runs against a crm outage, no resilience manager: telemetry counted
    3 crm errors while the span-folded scoreboard showed none."""
    clock = SimClock()
    injector = FaultInjector(seed=1, clock=clock)
    injector.script("crm", Outage(message="crm DBMS down"))
    engine = FederatedEngine(
        fixture.catalog(wrap=injector.wrap),
        EngineConfig(clock=clock, tracer=Tracer(), telemetry=True),
    )
    for _ in range(3):
        with pytest.raises(InjectedFaultError):
            engine.query(QUERIES["q4_crm_sales_join"])
    crm = engine.scoreboard.sources["crm"]
    assert crm.failures == 3 and crm.summary()["failures"] == 3
    assert crm.answers == 0
    errors = engine.telemetry.registry.get(
        "eii_fetches_total", source="crm", outcome="error"
    )
    assert errors.value() == crm.failures


def test_lpt_without_feedback_predicts_from_learned_answers(fixture):
    """The predictor's profile stayed empty under `feedback=False`: its only
    feed sat behind the feedback switch."""
    policy = AdaptivePolicy(feedback=False, replan=False, lpt=True)
    engine = FederatedEngine(
        fixture.catalog(),
        EngineConfig(clock=SimClock(), adaptive=AdaptiveContext(policy)),
    )
    for sql in QUERIES.values():
        engine.query(sql)
    plan = engine.prepare(QUERIES["q4_crm_sales_join"])
    node = plan.fetches[0]
    predicted = engine.adaptive.predict_fetch_seconds(
        node, engine.network, plan.assembly_site, engine.scoreboard.snapshot()
    )
    crm = engine.scoreboard.sources[node.source.name]
    assert crm.answers > 0
    payload = node.est_rows * node.schema.average_row_width()
    assert predicted == pytest.approx(crm.answer_seconds / crm.answer_bytes * payload)
    assert predicted != static_fetch_seconds(
        node, node.est_rows, engine.network, plan.assembly_site
    )


def test_latency_history_is_bounded():
    board = QueryScoreboard()
    for index in range(LATENCY_HISTORY + 100):
        board.statement("crm", float(index), 1, 10, 12)
    crm = board.sources["crm"]
    assert crm.statements == LATENCY_HISTORY + 100
    assert len(crm.latencies_s) == LATENCY_HISTORY
    assert crm.latencies_s[0] == 100.0  # the oldest entries went
    assert crm.summary()["max_s"] == float(LATENCY_HISTORY + 99)


def test_reports_read_while_threads_add_sources():
    """`rows()` / `share()` / `remote_seconds()` iterated the record unlocked while
    caller threads added sources: "dictionary changed size during iteration"."""
    board = QueryScoreboard()
    for index in range(500):
        board.statement(f"s{index}", 0.001, 1, 10, 12)
    errors: list = []

    def writer():
        for index in range(500, 4000):
            board.statement(f"s{index}", 0.001, 1, 10, 12, answer=(f"s{index}", 0.001, 10))

    thread = threading.Thread(target=writer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread.start()
    try:
        while thread.is_alive():
            try:
                board.rows()
                board.share("s0")
                board.remote_seconds()
            except RuntimeError as exc:
                errors.append(exc)
    finally:
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(board.rows()) == 4000


# -- the replaced bodies, kept as references ---------------------------------------------


def span_fold(traces) -> dict:
    """The replaced `QueryScoreboard.record` + `SourceStats.observe`, over every
    finished remote span (a span whose statement never started has no rows)."""
    board: dict = {}
    for trace in traces:
        for span in trace.spans():
            if span.category not in ("fetch", "bind_fetch") or "rows" not in span.attrs:
                continue
            source = str(span.attrs.get("source", "?"))
            stats = board.setdefault(source, {
                "fetches": 0, "latencies_s": [], "seconds": 0.0, "rows": 0,
                "payload_bytes": 0, "wire_bytes": 0, "cache_hits": 0,
                "retries": 0, "failures": 0,
            })
            stats["fetches"] += 1
            stats["latencies_s"].append(span.self_seconds)
            stats["seconds"] += span.self_seconds
            attrs = span.attrs
            stats["rows"] += int(attrs.get("rows", 0) or 0)
            stats["payload_bytes"] += int(attrs.get("payload_bytes", 0) or 0)
            stats["wire_bytes"] += int(attrs.get("wire_bytes", 0) or 0)
            if attrs.get("cache") == "hit":
                stats["cache_hits"] += 1
            for event in span.events:
                if event.name == "retry":
                    stats["retries"] += 1
                elif event.name in ("source_failure", "breaker.open"):
                    stats["failures"] += 1
    return board


#: an old window's field -> the record's counter it became
WINDOW_FIELDS = {
    "fetches": "answers",
    "failures": "failures",
    "latency_sum_s": "answer_seconds",
    "cache_hits": "cache_hits",
    "cache_misses": "cache_misses",
    "retries": "retries",
}


class WindowedPlane(TelemetryPlane):
    """A plane that also keeps the replaced per-source windows, bumped where its
    old hooks were called, and pairs each close's old windows with the health
    model's input."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.old: dict = {}
        self.closes: list = []
        judge = self.health.close_window

        def close_window(windows, now):  # runs under the plane's lock
            self.closes.append((self.old, windows))
            self.old = {}
            judge(windows, now)

        self.health.close_window = close_window

    def bump(self, source: str, **deltas) -> None:
        with self._lock:
            window = self.old.setdefault(source.lower(), dict.fromkeys(WINDOW_FIELDS, 0))
            for name, delta in deltas.items():
                window[name] += delta


def bump_old_windows(monkeypatch):
    """Wrap the `Recorder` methods that called the old hooks: each bumps its
    plane's old windows as the hook did, then records as it does now."""

    def wrap(method, bumps):
        original = getattr(Recorder, method)

        def wrapped(self, *args):
            if isinstance(self.telemetry, WindowedPlane):
                for source, deltas in bumps(*args):
                    self.telemetry.bump(source, **deltas)
            original(self, *args)

        monkeypatch.setattr(Recorder, method, wrapped)

    def statement(source, base, cache, answer):
        if cache is not None:
            yield source, {"cache_hits" if cache == "hit" else "cache_misses": 1}
        if answer is not None:
            yield answer[0], {"fetches": 1, "latency_sum_s": answer[1]}

    wrap("statement_finished", statement)
    wrap("remote_failure", lambda source: [(source, {"failures": 1})])
    wrap("source_failure", lambda source, attempt, error: [(source, {"failures": 1})])
    wrap("retry", lambda source, attempt, delay: [(source, {"retries": 1})])


# -- oracles ---------------------------------------------------------------------------------

#: scenario -> (faulty source, its fault rule, whether a resilience manager runs)
SCENARIOS = {
    "no_fault": (None, None, False),
    "transient_retried": ("crm", lambda: Transient(4), True),
    "outage_managed": ("crm", Outage, True),
    "outage_unmanaged": ("crm", Outage, False),
    "latency_spike": ("support", lambda: LatencySpike(0.2, every=2), False),
}


def run_scenario(fixture, name):
    """Q1-Q12 twice (the second pass meets the fetch cache) under one fault
    schedule, failover off; returns the engine and its plane."""
    source, rule, managed = SCENARIOS[name]
    clock = SimClock()
    injector = FaultInjector(seed=7, clock=clock)
    if source is not None:
        injector.script(source, rule())
    plane = WindowedPlane(window_s=WINDOW_S)
    engine = FederatedEngine(
        fixture.catalog(wrap=injector.wrap),
        EngineConfig(
            clock=clock, tracer=Tracer(keep=100), telemetry=plane,
            resilience=ResiliencePolicy(max_attempts=3, failover=False) if managed else None,
            cache=CacheHierarchy(CacheConfig(result_enabled=False), clock=clock),
        ),
    )
    for _ in range(2):
        for sql in QUERIES.values():
            try:
                clock.advance(engine.query(sql).elapsed_seconds)
            except EIIError:
                clock.advance(WINDOW_S / 3)
    plane.tick(clock() + WINDOW_S)
    return engine, plane


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_record_equals_the_span_fold(fixture, scenario):
    engine, plane = run_scenario(fixture, scenario)
    assert engine.tracer.finished == len(engine.tracer.traces) == 24
    fold = span_fold(engine.tracer.traces)
    record = engine.scoreboard.sources
    assert sorted(record) == sorted(fold)
    for name, old in fold.items():
        new = record[name]
        summary = new.summary()
        failures = old["failures"]
        if engine.resilience is None:
            # without a manager the fold never heard a failed call; the registry did
            missed = plane.registry.get("eii_fetches_total", source=name, outcome="error")
            failures += missed.value() if missed is not None else 0
        for field in ("fetches", "rows", "payload_bytes", "wire_bytes",
                      "cache_hits", "retries"):
            assert summary[field] == old[field], (name, field)
        assert summary["failures"] == failures, name
        assert summary["seconds"] == pytest.approx(old["seconds"], abs=1e-12), name
        assert sorted(new.latencies_s) == pytest.approx(
            sorted(old["latencies_s"]), abs=1e-12
        ), name
    if scenario == "outage_unmanaged":
        assert record["crm"].failures > 0  # the case the fold missed


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_each_health_input_equals_the_old_window(fixture, scenario, monkeypatch):
    bump_old_windows(monkeypatch)
    _, plane = run_scenario(fixture, scenario)
    assert len(plane.closes) > 5
    for old, new in plane.closes:
        for name in set(old) | set(new):
            was = old.get(name, dict.fromkeys(WINDOW_FIELDS, 0))
            delta = new.get(name)
            for field, counter in WINDOW_FIELDS.items():
                now = getattr(delta, counter) if delta is not None else 0
                if field == "latency_sum_s":
                    assert now == pytest.approx(was[field], abs=1e-12), (name, field)
                else:
                    assert now == was[field], (name, field)


def _totals(board) -> dict:
    counts = ("statements", "rows", "payload_bytes", "wire_bytes", "cache_hits",
              "cache_misses", "answers", "answer_bytes", "failures",
              "short_circuits", "retries")
    return {
        name: tuple(getattr(stats, count) for count in counts)
        for name, stats in board.snapshot().items()
    }


def test_threads_sharing_an_engine_leave_the_serial_totals(fixture):
    def engine():
        return FederatedEngine(fixture.catalog(), EngineConfig(clock=SimClock()))

    serial = engine()
    for _ in range(THREADS):
        for sql in QUERIES.values():
            serial.query(sql)

    shared = engine()
    barrier = threading.Barrier(THREADS)

    def worker():
        barrier.wait()
        for sql in QUERIES.values():
            shared.query(sql)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often: a lost update would show
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert _totals(shared.scoreboard) == _totals(serial.scoreboard)
    answered = sum(stats.answers for stats in shared.scoreboard.sources.values())
    assert answered == sum(
        stats.statements for stats in shared.scoreboard.sources.values()
    )
