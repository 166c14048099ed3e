"""The workload account: each workload fact written once, where it happens.

A `WorkloadResult` carries one `TenantStats` per tenant and one for the run's
total, written by the scheduler as arrivals, rejections, sheds, dispatches,
completions and coalescings happen - never re-derived from the outcomes
afterwards. Their collectors hold the counters of every execution a dispatch
caused, once each: an answer's own, a failed query's partial account, and
nothing for a result-cache hit (it re-serves an execution already counted).

`SCHED_SEED` (env) parameterizes the workload seed, like the oracle suite.
"""

import io
import os

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import EIIError
from repro.federation import EngineConfig, FederatedEngine
from repro.netsim import FaultInjector, Outage, SimClock
from repro.netsim.metrics import MetricsCollector
from repro.sched import (
    DEFAULT_TENANTS,
    QueryRequest,
    SchedulerConfig,
    WorkloadScheduler,
    make_workload,
)
from repro.shell import Shell

from tests.federation_fixtures import build_engine

SEED = int(os.environ.get("SCHED_SEED", "7"))

Q_CUSTOMERS = "SELECT name, city FROM customers WHERE id = 3"
Q_JOIN = (
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.total > 50"
)
Q_GROUP = (
    "SELECT c.city, COUNT(*) AS n FROM customers c "
    "JOIN orders o ON c.id = o.cust_id GROUP BY c.city"
)

#: the counters every fact adds to its tenant's record and the total alike
COUNTERS = (
    "queries", "ok", "partial", "failed", "shed", "rejected",
    "deadline_misses", "coalesced_fetches",
)


@pytest.fixture(scope="module")
def enterprise():
    return build_enterprise(BenchConfig(scale=1, seed=42))


def run(requests, engine=None, **config):
    return WorkloadScheduler(
        engine or build_engine(), DEFAULT_TENANTS, SchedulerConfig(**config)
    ).run(requests)


# -- one record per tenant, written where the facts happen ----------------------


class TestTenantStats:
    def test_answered_outcome_accumulates_waits_and_service(self):
        result = run(
            [QueryRequest(Q_CUSTOMERS, tenant="dashboard") for _ in range(2)],
            max_active=1,
        )
        stats = result.tenants["dashboard"]
        summary = stats.summary()
        assert summary["queries"] == 2 and summary["answered"] == 2
        waits = [o.queue_wait_s for o in result.in_dispatch_order()]
        assert stats.waits_s == waits and waits[1] > 0  # the second queued
        assert summary["mean_wait_s"] == pytest.approx(sum(waits) / 2)
        assert summary["service_s"] == pytest.approx(
            sum(o.service_s for o in result.outcomes)
        )
        assert summary["shed"] == summary["rejected"] == summary["failed"] == 0

    def test_shed_and_rejected_never_count_dispatch_stats(self):
        # one slot, a one-deep queue: "late" queues behind "head" and sheds
        # once its deadline passes; "full" finds the queue full
        result = run(
            [
                QueryRequest(Q_GROUP, tenant="dashboard", name="head"),
                QueryRequest(Q_CUSTOMERS, tenant="batch", name="late", deadline_s=1e-6),
                QueryRequest(Q_CUSTOMERS, tenant="batch", name="full"),
            ],
            max_active=1,
            queue_depth=1,
        )
        stats = result.tenants["batch"]
        assert stats.shed == 1 and stats.rejected == 1
        assert stats.answered == 0
        assert stats.waits_s == [] and stats.service_s == 0.0
        assert stats.summary()["p95_wait_s"] == 0.0  # hardened percentile
        assert stats.metrics.summary() == MetricsCollector().summary()

    def test_failed_and_deadline_missed_are_distinct_tallies(self):
        result = run(
            [
                QueryRequest("SELECT nope FROM nowhere", tenant="analytics"),
                QueryRequest(Q_JOIN, tenant="analytics", deadline_s=1e-9),
                QueryRequest(Q_JOIN, tenant="analytics"),
            ]
        )
        stats = result.tenants["analytics"]
        assert stats.failed == 1
        assert stats.deadline_misses == 1
        assert stats.coalesced_fetches >= 1
        assert stats.coalesced_fetches == sum(
            o.coalesced_fetches for o in result.outcomes
        )
        # the failed-but-dispatched query still contributes its wait
        assert len(stats.waits_s) == 3

    def test_records_group_by_tenant(self):
        result = run(
            make_workload(30, seed=SEED, mean_gap_s=0.001),
            max_active=2,
            queue_depth=4,
        )
        tenants = result.tenants
        assert set(tenants) == {o.request.tenant for o in result.outcomes}
        for name, stats in tenants.items():
            mine = result.by_tenant(name)
            assert stats.queries == len(mine)
            assert stats.answered == sum(o.answered for o in mine)
        for counter in COUNTERS:  # the total is written beside, not summed after
            assert getattr(result.total, counter) == sum(
                getattr(stats, counter) for stats in tenants.values()
            ), counter
        merged = MetricsCollector()
        for stats in tenants.values():
            merged.merge(stats.metrics)
        assert merged.summary() == result.total.metrics.summary()


# -- regressions: each execution counted once -----------------------------------


def test_shell_workload_adds_only_the_tracers_traces_to_the_scoreboard():
    """The scoreboard's query count is the tracer's count of finished traces;
    the workload adds nothing beside it (it used to fold every outcome's trace
    a second time: 21 queries for 11 traces)."""
    shell = Shell(scale=1, out=io.StringIO())
    finished = []
    finish = shell.tracer.finish

    def counting_finish(trace):
        finished.append(trace)
        finish(trace)

    shell.tracer.finish = counting_finish
    before = shell.tracer.finished
    shell.handle("\\workload 10 0")
    assert finished
    assert shell.tracer.finished - before == len(finished)


def test_result_cache_hits_are_not_recounted(enterprise):
    """Three identical requests on a result-caching engine execute once: the
    account holds that one execution (it used to merge each hit's borrowed
    collector: 159 bytes and 3 source queries)."""
    engine = FederatedEngine(
        enterprise.catalog(), EngineConfig(cache=CacheHierarchy(CacheConfig()))
    )
    sql = "SELECT name, email, city FROM customers WHERE id = 7"
    result = run([QueryRequest(sql) for _ in range(3)], engine=engine)
    assert [o.result.from_cache for o in result.outcomes] == [False, True, True]
    metrics = result.total.metrics
    assert (metrics.wire_bytes, metrics.total_source_queries()) == (53, 1)
    assert metrics.summary() == result.outcomes[0].result.metrics.summary()
    assert result.tenants["default"].metrics.summary() == metrics.summary()


def _support_down(fixture):
    clock = SimClock()
    injector = FaultInjector(seed=SEED, clock=clock)
    injector.script("support", Outage(message="support DBMS down"))
    return FederatedEngine(fixture.catalog(wrap=injector.wrap), EngineConfig(clock=clock))


def test_failed_dispatch_partial_accounting_counts(enterprise):
    """What a failed query did before it died (`exc.metrics`, already in
    `serial_s`) is work done: it lands in its tenant's account and the total,
    exactly as a serial replay of the dispatch order accumulates it."""
    requests = make_workload(40, seed=SEED, mean_gap_s=0.005)
    result = run(requests, engine=_support_down(enterprise))
    assert result.total.failed > 0

    replay = _support_down(enterprise)
    for request in requests:  # arrivals price every query: plans are cached
        try:
            replay.prepare(request.sql)
        except EIIError:
            pass
    expected = {name: MetricsCollector() for name in result.tenants}
    failures = MetricsCollector()
    for outcome in result.in_dispatch_order():
        try:
            executed = replay.query(outcome.request.sql).metrics
        except EIIError as exc:
            executed = exc.metrics
            failures.merge(executed)
        expected[outcome.request.tenant].merge(executed)
    assert failures.total_source_queries() > 0  # the choice is exercised
    for name, stats in result.tenants.items():
        assert stats.metrics.summary() == expected[name].summary(), name
    total = MetricsCollector()
    for collector in expected.values():
        total.merge(collector)
    assert result.total.metrics.summary() == total.summary()
