"""Plan = value, execution = context, facts recorded once.

Three properties of `repro.federation.execution`:

* **threaded ≡ serial** — one engine shared by eight threads answers every
  query with the rows, `metrics.summary()` and `elapsed_seconds` a serial
  engine gives (before per-execution state left the shared plan nodes, about
  a fifth of the answers carried another query's bytes and seconds);
* **plans are values** — executing a cached `FederatedPlan`, replans
  included, leaves every attribute of every node untouched;
* **a failed query still finishes its trace**, with the error type on the
  root span, so the tracer counts it.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.adaptive import AdaptiveContext, AdaptivePolicy
from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import (
    AdmissionError,
    EIIError,
    InjectedFaultError,
    SourceError,
)
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.federation.planner import FederatedPlanner
from repro.netsim import FaultInjector, Outage, SimClock
from repro.trace import Tracer

from tests.test_engine_characterization import CONFIGS

THREADS, PASSES = 8, 15


@pytest.fixture(scope="module")
def fixture():
    return build_enterprise(BenchConfig(scale=1, seed=42))


# -- threaded ≡ serial ---------------------------------------------------------------


def _default(fixture):
    return FederatedEngine(fixture.catalog(), EngineConfig(clock=SimClock()))


def _everything_on(fixture):
    clock = SimClock()
    config = EngineConfig(
        clock=clock,
        tracer=Tracer(),
        cache=CacheHierarchy(CacheConfig(result_enabled=False), clock=clock),
        resilience=ResiliencePolicy(max_attempts=2),
        partial_results=True,
    )
    return FederatedEngine(fixture.catalog(), config)


#: texts over a virtual schema: nested definitions, a base table beside one,
#: the definition's own aliases outside it, an aggregate, lookups of one shape
MEDIATED = {
    "lookup_7": "SELECT v.name, v.order_total, v.credit_score FROM customer360 v WHERE v.cust_id = 7",
    "lookup_8": "SELECT v.name, v.order_total, v.credit_score FROM customer360 v WHERE v.cust_id = 8",
    "nested": "SELECT b.cust_id, b.total FROM big_orders b WHERE b.cust_id = 9",
    "mixed": "SELECT c.name, o.subject FROM customer360 c JOIN tickets o ON o.cust_id = c.cust_id "
    "WHERE c.cust_id = 11",
    "rollup": "SELECT v.segment, COUNT(*) AS n FROM customer360 v WHERE v.city = 'SEA' GROUP BY v.segment",
    "two_names": "SELECT s.name, b.total FROM seattle s JOIN big_orders b ON b.cust_id = s.id "
    "WHERE b.total > 9000",
}


def _mediated(fixture):
    catalog = fixture.catalog()
    catalog.define(
        "customer360",
        "SELECT c.id AS cust_id, c.name AS name, c.city AS city, c.segment AS segment, "
        "o.total AS order_total, cr.score AS credit_score FROM customers c "
        "JOIN orders o ON c.id = o.cust_id JOIN credit cr ON cr.cust_id = c.id",
    )
    catalog.define("big_orders", "SELECT v.cust_id AS cust_id, v.order_total AS total "
                   "FROM customer360 v WHERE v.order_total > 500")
    catalog.define("seattle", "SELECT c.id AS id, c.name AS name FROM customers c WHERE c.city = 'SEA'")
    return FederatedEngine(catalog, EngineConfig(clock=SimClock()))


def _answer(result, cold=False) -> tuple:
    summary = result.metrics.summary()
    if cold:  # who planned a statement first is the one thing a cold start leaves open
        summary = {name: value for name, value in summary.items() if "cache" not in name}
    return sorted(result.relation.rows, key=repr), summary, result.elapsed_seconds


@pytest.mark.parametrize(
    "build, queries, cold",
    [(_default, QUERIES, False), (_everything_on, QUERIES, False), (_mediated, MEDIATED, True)],
    ids=["_default", "_everything_on", "_mediated"],
)
def test_threaded_answers_equal_the_serial_reference(fixture, build, queries, cold):
    # One warm pass each, so both engines answer from a warm plan (and
    # fetch) cache and an answer does not depend on who got there first -
    # except `cold`: the threads meet an engine that has planned and unfolded
    # nothing (eight at once used to trip the mediator's cycle guard).
    serial = build(fixture)
    for sql in queries.values():
        serial.query(sql)
    reference = {name: _answer(serial.query(sql), cold) for name, sql in queries.items()}

    names = list(queries)
    differing: list = []

    def client(offset: int) -> None:
        order = names[offset:] + names[:offset]  # threads overlap different queries
        for _ in range(PASSES):
            for name in order:
                try:
                    same = _answer(shared.query(queries[name]), cold) == reference[name]
                except Exception as exc:  # noqa: BLE001 - a raise is a differing answer
                    same = differing.append(f"{name}: {exc!r}")
                if not same:
                    differing.append(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    shared = build(fixture)
    try:
        for sql in () if cold else queries.values():
            shared.query(sql)
        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    total = THREADS * PASSES * len(names)
    assert not differing, f"{len(differing)} of {total} answers differ: {differing[:8]}"


# -- plans are values ----------------------------------------------------------------


def _snapshot(plan) -> dict:
    """Every attribute of the plan and of each of its nodes, by identity."""

    def frozen(owner) -> dict:
        return {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in vars(owner).items()
        }

    nodes = {id(node): node for node in plan.root.walk()}
    nodes.update((id(node), node) for node in plan.fetches + plan.bind_joins)
    return {"plan": (plan, frozen(plan))} | {
        key: (node, frozen(node)) for key, node in nodes.items()
    }


def _changes(before: dict, after: dict) -> list:
    out = []
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        for name in attrs.keys() | now.keys():
            old, new = attrs.get(name, "<unset>"), now.get(name, "<unset>")
            same = (
                len(old) == len(new) and all(a is b for a, b in zip(old, new))
                if isinstance(old, tuple) and isinstance(new, tuple)
                else old is new
            )
            if not same:
                out.append(f"{type(owner).__name__}.{name}")
    return out


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_executing_a_cached_plan_never_writes_to_it(fixture, config_name):
    engine, _ = CONFIGS[config_name](fixture)
    max_bind_keys = engine.planner.max_bind_keys
    replans = 0
    for name, sql in QUERIES.items():
        engine.planner.max_bind_keys = max_bind_keys
        plan = engine.prepare(sql)  # the plan the cache will hand out
        before = _snapshot(plan)
        for execution in range(2):
            if execution == 1 and engine.adaptive is not None:
                # force the second run through mid-query re-optimization:
                # any drift replans, every optional bind join is converted
                engine.adaptive.policy.replan_threshold = 1.0
                engine.planner.max_bind_keys = 0
            try:
                result = engine.execute_plan(plan)
                replans += result.replan is not None
            except EIIError:
                pass  # the faulty config fails its inner joins on purpose
        assert _changes(before, _snapshot(plan)) == [], name
    if engine.adaptive is not None:
        assert replans > 0, "the forced replan never fired"


def test_a_bind_join_converted_mid_query_stays_degradable(monkeypatch):
    """Replanning rebuilds the tree (here: a union arm's bind join → hash join
    over a new fetch); which branches may degrade follows the tree that runs."""
    from tests.test_adaptive import build_skewed_catalog

    def down(stmt, metrics):
        raise SourceError("mart is down")

    catalog = build_skewed_catalog(big_factor=0.01)
    monkeypatch.setattr(catalog.source_of("orders_small"), "execute_select", down)
    config = EngineConfig(
        planner=FederatedPlanner(catalog, max_bind_keys=50),
        adaptive=AdaptiveContext(AdaptivePolicy(lpt=False)),
        partial_results=True,
        parallel_workers=1,
    )
    engine = FederatedEngine(catalog, config)
    plan = engine.prepare(
        "SELECT a.cust_id FROM orders_big a "
        "JOIN orders_small b ON a.cust_id = b.cust_id "
        "UNION ALL SELECT c.id FROM customers c"
    )
    assert len(plan.bind_joins) == 1
    before = _snapshot(plan)
    result = engine.execute_plan(plan)
    assert result.replan is not None and result.replan.converted_bind_joins == 1
    assert result.is_partial and result.metrics.degraded_fetches == 1
    # the mart arm is lost (and annotated), the crm arm answers
    assert result.completeness.skipped_sources() == ["mart"]
    assert sorted(result.relation.rows) == [(i,) for i in range(1, 9)]
    assert _changes(before, _snapshot(plan)) == []


# -- a failed query finishes its trace -----------------------------------------------


def _failing_engines(fixture):
    clock = SimClock()
    over_budget = FederatedEngine(
        fixture.catalog(),
        EngineConfig(clock=clock, tracer=Tracer(), admission_budget_s=1e-9),
    )
    yield over_budget, AdmissionError

    clock = SimClock()
    injector = FaultInjector(seed=1, clock=clock)
    injector.script("crm", Outage(message="crm DBMS down"))
    source_down = FederatedEngine(
        fixture.catalog(wrap=injector.wrap),
        EngineConfig(clock=clock, tracer=Tracer(), telemetry=True),
    )
    yield source_down, InjectedFaultError


def test_a_failed_query_finishes_its_trace(fixture):
    for engine, error in _failing_engines(fixture):
        with pytest.raises(error):
            engine.query(QUERIES["q4_crm_sales_join"])
        (trace,) = engine.tracer.traces
        assert trace.finalized
        assert trace.root.attrs["error"] == error.__name__
        assert engine.tracer.finished == 1
        if engine.telemetry.enabled:
            counters = engine.telemetry.registry.snapshot()
            assert counters['eii_queries_total{status="error"}'] == 1


def test_a_failed_direct_execution_finishes_its_own_trace(fixture):
    engine, error = list(_failing_engines(fixture))[1]
    plan = engine.planner.plan(QUERIES["q4_crm_sales_join"])
    with pytest.raises(error):
        engine.execute_plan(plan)
    assert engine.tracer.last.finalized
    assert engine.tracer.last.root.attrs["error"] == error.__name__
