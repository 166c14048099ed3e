"""The differential serial-vs-concurrent oracle for the workload scheduler.

The scheduler's contract: concurrency is virtual-time bookkeeping only.
Every admitted query really executes via one `engine.query()` call in
dispatch order, so a concurrent run must answer exactly what the same
dispatch sequence answers serially — row for row, with or without fault
injection — and a seeded run must replay byte-identically.

`SCHED_SEED` (env) parameterizes the workload seed so CI can sweep a
seed matrix over this whole module.
"""

import copy
import os

from repro.bench import BenchConfig, build_enterprise
from repro.common.errors import EIIError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import ErrorRate, FaultInjector, SimClock, Transient
from repro.sched import (
    DEFAULT_TENANTS,
    SchedulerConfig,
    WorkloadScheduler,
    make_workload,
)

SEED = int(os.environ.get("SCHED_SEED", "7"))


def fresh_engine(**kwargs):
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    return FederatedEngine(fixture.catalog(), EngineConfig(**kwargs))


def rows_of(outcome):
    return None if outcome.result is None else outcome.result.relation.rows


# -- the oracle, fault-free ----------------------------------------------------


def test_concurrent_rows_equal_direct_serial_run():
    """Concurrent answers == plain `engine.query()` in dispatch order."""
    requests = make_workload(40, seed=SEED, mean_gap_s=0.005)
    concurrent = WorkloadScheduler(
        fresh_engine(),
        tenants=DEFAULT_TENANTS,
        config=SchedulerConfig(workers=8, policy="wfq", coalesce=True),
    ).run(requests)
    assert all(o.answered for o in concurrent.outcomes)

    serial_engine = fresh_engine()
    for outcome in concurrent.in_dispatch_order():
        expected = serial_engine.query(outcome.request.sql).relation.rows
        assert rows_of(outcome) == expected, outcome.request.name


def test_concurrent_rows_equal_fifo_serial_scheduler():
    """Same rows out of every scheduler configuration (no faults: the
    answer is a pure function of the SQL, whatever the dispatch order)."""
    requests = make_workload(40, seed=SEED, mean_gap_s=0.005)
    configs = [
        (SchedulerConfig(workers=4, max_active=1, policy="fifo", coalesce=False), ()),
        (SchedulerConfig(workers=8, policy="fifo", coalesce=True), ()),
        (SchedulerConfig(workers=8, policy="wfq", coalesce=True), ()),
        (SchedulerConfig(workers=8, policy="wfq", coalesce=True), (("crm", 2),)),
    ]
    runs = [
        WorkloadScheduler(
            fresh_engine(source_limits=limits), tenants=DEFAULT_TENANTS, config=config
        ).run(requests)
        for config, limits in configs
    ]
    baseline = [rows_of(o) for o in runs[0].outcomes]
    for run in runs[1:]:
        assert [rows_of(o) for o in run.outcomes] == baseline


def test_makespan_bounded_by_serial_equivalent():
    """Concurrency may only help: makespan <= arrival span + serial work."""
    requests = make_workload(40, seed=SEED, mean_gap_s=0.005)
    result = WorkloadScheduler(
        fresh_engine(),
        tenants=DEFAULT_TENANTS,
        config=SchedulerConfig(workers=8, policy="wfq"),
    ).run(requests)
    last_arrival = max(r.arrival_s for r in requests)
    assert result.makespan_s <= last_arrival + result.serial_s + 1e-9
    # and the audit says no round left startable work on the table
    assert all(row[-1] == 0 for row in result.audit)


# -- the oracle, under scripted faults -----------------------------------------

#: call-based rules only: their firing depends on each source's call
#: sequence, which dispatch-order replay reproduces exactly
FAULT_RULES = {
    "crm": [Transient(2), ErrorRate(0.2)],
    "sales": [ErrorRate(0.3)],
    "support": [Transient(1)],
}


def faulty_engine(seed=SEED):
    """Injector-wrapped enterprise whose behavior is a pure function of
    its source-call sequence (fresh rule copies, no time-window rules,
    breakers effectively disabled, one worker for strict call order)."""
    clock = SimClock()
    injector = FaultInjector(seed=seed, clock=clock)
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    catalog = fixture.catalog(wrap=injector.wrap)
    for name, rules in FAULT_RULES.items():
        injector.script(name, *copy.deepcopy(rules))
    return FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=1, resilience=ResiliencePolicy(
            max_attempts=3, breaker_failure_threshold=None, seed=seed
        ), partial_results=True))


def serial_replay(concurrent):
    """Replay the concurrent run's dispatch sequence on a fresh faulty
    engine, advancing the clock to each recorded dispatch instant."""
    engine = faulty_engine()
    replayed = []
    for outcome in concurrent.in_dispatch_order():
        behind = outcome.dispatch_s - engine.clock.now()
        if behind > 0:
            engine.clock.advance(behind)
        try:
            result = engine.query(outcome.request.sql)
        except EIIError as exc:
            replayed.append(("failed", None, str(exc)))
        else:
            replayed.append(
                (
                    "partial" if result.is_partial else "ok",
                    result.relation.rows,
                    "",
                )
            )
    return replayed


def test_fault_oracle_concurrent_equals_serial_replay():
    """Under fault injection with partial results, the concurrent run and
    a serial replay of its dispatch sequence agree on every outcome:
    status, exact rows, and failure message."""
    requests = make_workload(40, seed=SEED, mean_gap_s=0.005)
    concurrent = WorkloadScheduler(
        faulty_engine(),
        tenants=DEFAULT_TENANTS,
        config=SchedulerConfig(workers=8, policy="wfq", coalesce=True),
    ).run(requests)
    observed = [
        (o.status, rows_of(o), o.error) for o in concurrent.in_dispatch_order()
    ]
    assert observed == serial_replay(concurrent)


def test_fault_oracle_surfaces_partials_not_lies():
    """Whatever the schedule does, no outcome is silently wrong: each is
    ok (exact rows), partial (flagged, with skipped sources), failed
    (typed message), or shed/rejected (never executed)."""
    requests = make_workload(40, seed=SEED, mean_gap_s=0.005)
    concurrent = WorkloadScheduler(
        faulty_engine(),
        tenants=DEFAULT_TENANTS,
        config=SchedulerConfig(workers=8, policy="wfq"),
    ).run(requests)
    for outcome in concurrent.outcomes:
        if outcome.status == "partial":
            assert outcome.result.completeness.skipped_sources()
        elif outcome.status == "ok":
            assert outcome.result is not None
        elif outcome.status == "failed":
            assert outcome.error
        else:
            assert outcome.result is None


# -- seeded replay: byte-identical ---------------------------------------------


def run_seeded(seed, faults=False):
    engine = faulty_engine(seed=SEED) if faults else fresh_engine()
    return WorkloadScheduler(
        engine,
        tenants=DEFAULT_TENANTS,
        config=SchedulerConfig(workers=8, policy="wfq", coalesce=True),
    ).run(make_workload(40, seed=seed, mean_gap_s=0.005))


def test_seeded_replay_is_byte_identical():
    first, second = run_seeded(SEED), run_seeded(SEED)
    assert first.trace.to_json() == second.trace.to_json()
    assert first.summary() == second.summary()
    assert first.total.metrics.summary() == second.total.metrics.summary()
    assert {
        name: (record.summary(), record.metrics.summary())
        for name, record in first.tenants.items()
    } == {
        name: (record.summary(), record.metrics.summary())
        for name, record in second.tenants.items()
    }
    assert first.audit == second.audit


def test_seeded_replay_is_byte_identical_under_faults():
    first, second = run_seeded(SEED, faults=True), run_seeded(SEED, faults=True)
    assert first.trace.to_json() == second.trace.to_json()
    assert first.summary() == second.summary()


def test_different_seed_changes_the_workload():
    assert run_seeded(SEED).trace.to_json() != run_seeded(SEED + 1).trace.to_json()
