"""The telemetry plane reads its per-source instruments from the engine's record.

``eii_fetches_total``, ``eii_fetch_latency_seconds``,
``eii_fetch_payload_bytes_total``, ``eii_cache_hits_total``,
``eii_cache_misses_total``, ``eii_retries_total``,
``eii_source_failures_total`` and ``eii_breaker_short_circuits_total`` are
computed from ``engine.scoreboard`` whenever the registry is read; nothing on
the query path writes them. The reference, `HookedPlane`, holds the plane hooks
that wrote them, fed where the `Recorder` called them. Each scenario runs once
per plane - Q1-Q12 twice (the second pass meets the fetch cache) under the
fault schedules of `test_source_record.py`, plus a crm outage failing over to a
standby - and at every window close the registry snapshot, the series and both
exports must be byte-identical. Last, eight threads sharing one telemetry-on
engine leave the serial run's per-source instruments.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

import tests.test_source_record as source_record
from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import EIIError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.federation.execution import Recorder
from repro.netsim import FaultInjector, Outage, SimClock
from repro.sources import RelationalSource
from repro.telemetry import TelemetryPlane
from repro.telemetry.instruments import Histogram

WINDOW_S = 0.05
THREADS = 8

#: scenario -> (faulty source, its fault rule, whether a resilience manager runs)
SCENARIOS = dict(source_record.SCENARIOS, outage_failover=("crm", Outage, True))

#: the families the plane reads from the record
SOURCE_FAMILIES = (
    "eii_fetches_total", "eii_fetch_latency_seconds", "eii_fetch_payload_bytes_total",
    "eii_cache_hits_total", "eii_cache_misses_total", "eii_retries_total",
    "eii_source_failures_total", "eii_breaker_short_circuits_total",
)


@pytest.fixture(scope="module")
def fixture():
    return build_enterprise(BenchConfig(scale=1, seed=42))


# -- the replaced hooks, kept as the reference --------------------------------------------


class HookedPlane(TelemetryPlane):
    """A plane whose per-source instruments are written by the deleted hooks."""

    def _source_instruments(self) -> list:
        return []  # it reads nothing from the record; health still judges it

    def on_fetch(self, source, seconds=0.0, payload_bytes=0, cache="", ok=True):
        name = source.lower()
        with self._lock:
            if cache == "hit":
                self.registry.counter(
                    "eii_cache_hits_total", "per-source fetch-cache hits", source=name
                ).inc()
                return
            if cache == "miss":
                self.registry.counter(
                    "eii_cache_misses_total", "per-source fetch-cache misses", source=name
                ).inc()
                return
            outcome = "ok" if ok else "error"
            self.registry.counter(
                "eii_fetches_total",
                "component fetches by source and outcome",
                source=name,
                outcome=outcome,
            ).inc()
            if ok:
                self.registry.histogram(
                    "eii_fetch_latency_seconds", "simulated per-fetch latency", source=name
                ).observe(seconds)
                if payload_bytes:
                    self.registry.counter(
                        "eii_fetch_payload_bytes_total",
                        "payload bytes shipped per source",
                        source=name,
                    ).inc(payload_bytes)

    def on_retry(self, source, backoff_s=0.0):
        with self._lock:
            self.registry.counter(
                "eii_retries_total", "retries by source", source=source.lower()
            ).inc()

    def on_source_failure(self, source):
        with self._lock:
            self.registry.counter(
                "eii_source_failures_total", "failed source calls", source=source.lower()
            ).inc()

    def on_breaker_short_circuit(self, source):
        with self._lock:
            self.registry.counter(
                "eii_breaker_short_circuits_total",
                "calls rejected by an open breaker",
                source=source.lower(),
            ).inc()


@pytest.fixture
def hooked(monkeypatch):
    """Wrap the `Recorder` methods that called the hooks: on a `HookedPlane`
    each calls them as it did, after recording as it does now."""

    def wrap(method, call):
        original = getattr(Recorder, method)

        def wrapped(self, *args):
            original(self, *args)
            if isinstance(self.telemetry, HookedPlane):
                call(self.telemetry, *args)

        monkeypatch.setattr(Recorder, method, wrapped)

    def statement_finished(plane, source, base, cache, answer):
        if cache is not None:
            plane.on_fetch(source, cache=cache)
        if answer is not None:
            answered_by, seconds, size = answer
            plane.on_fetch(answered_by, seconds=seconds, payload_bytes=size)

    wrap("statement_finished", statement_finished)
    wrap("remote_failure", lambda plane, source: plane.on_fetch(source, ok=False))
    wrap("breaker_short_circuit", lambda plane, source: plane.on_breaker_short_circuit(source))
    wrap("source_failure", lambda plane, source, attempt, error: plane.on_source_failure(source))
    wrap("retry", lambda plane, source, attempt, delay: plane.on_retry(source, backoff_s=delay))


# -- the oracle ------------------------------------------------------------------------------


def outputs(plane) -> tuple:
    return (
        repr(plane.registry.snapshot()),
        json.dumps(plane.series.to_dicts()),
        plane.export_jsonl(),
        plane.export_prometheus(),
    )


def run(fixture, scenario, plane) -> list:
    """Q1-Q12 twice under the scenario's fault schedule; the plane's outputs at
    every window close, the final one included."""
    source, rule, managed = SCENARIOS[scenario]
    failover = scenario == "outage_failover"
    clock = SimClock()
    injector = FaultInjector(seed=7, clock=clock)
    if source is not None:
        injector.script(source, rule())
    catalog = fixture.catalog(wrap=injector.wrap)
    if failover:
        catalog.register_replica(RelationalSource("crm_standby", fixture.crm))
    closes = []
    tick = plane.tick

    def ticked(now=None):
        closed = tick(now)
        if closed:
            closes.append(outputs(plane))
        return closed

    plane.tick = ticked
    engine = FederatedEngine(catalog, EngineConfig(
        clock=clock, telemetry=plane,
        resilience=ResiliencePolicy(max_attempts=3, failover=failover) if managed else None,
        cache=CacheHierarchy(CacheConfig(result_enabled=False), clock=clock),
    ))
    for _ in range(2):
        for sql in QUERIES.values():
            try:
                clock.advance(engine.query(sql).elapsed_seconds)
            except EIIError:
                clock.advance(WINDOW_S / 3)
    plane.tick(clock() + WINDOW_S)
    return closes


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_window_close_equals_the_hook_fed_plane(fixture, scenario, hooked):
    read = run(fixture, scenario, TelemetryPlane(window_s=WINDOW_S))
    written = run(fixture, scenario, HookedPlane(window_s=WINDOW_S))
    assert len(read) == len(written) > 5
    for index, (new, old) in enumerate(zip(read, written)):
        for what, a, b in zip(("snapshot", "series", "jsonl", "prometheus"), new, old):
            assert a == b, (scenario, index, what)


def test_the_scenarios_reach_every_family(fixture):
    """Each family the plane reads shows in some scenario's export, and a failed
    call shows in the family its engine reports it under."""
    seen = {}
    for scenario in SCENARIOS:
        seen[scenario] = run(fixture, scenario, TelemetryPlane(window_s=WINDOW_S))[-1][3]
    text = "".join(seen.values())
    for family in SOURCE_FAMILIES:
        assert f"# TYPE {family} " in text, family
    assert 'eii_fetches_total{outcome="error",source="crm"}' in seen["outage_unmanaged"]
    assert "eii_source_failures_total" not in seen["outage_unmanaged"]
    assert 'eii_source_failures_total{source="crm"}' in seen["outage_managed"]
    assert 'outcome="error"' not in seen["outage_managed"]
    assert 'eii_breaker_short_circuits_total{source="crm"}' in seen["outage_failover"]
    assert 'eii_fetches_total{outcome="ok",source="crm_standby"}' in seen["outage_failover"]


# -- threads -------------------------------------------------------------------------------


def per_source(registry) -> dict:
    out = {}
    for instrument in registry.instruments():
        if instrument.name not in SOURCE_FAMILIES:
            continue
        key = instrument.name + instrument.label_string()
        if isinstance(instrument, Histogram):
            out[key] = (instrument.count, instrument.cumulative_buckets())
        else:
            out[key] = instrument.value()
    return out


def test_threads_sharing_an_engine_leave_the_serial_instruments(fixture):
    def engine():
        return FederatedEngine(
            fixture.catalog(), EngineConfig(clock=SimClock(), telemetry=TelemetryPlane())
        )

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
    expected = per_source(serial.telemetry.registry)
    assert expected and per_source(shared.telemetry.registry) == expected
    for name, stats in shared.scoreboard.sources.items():
        latency = shared.telemetry.registry.get("eii_fetch_latency_seconds", source=name)
        assert latency.sum == pytest.approx(stats.answer_seconds, rel=1e-12)
