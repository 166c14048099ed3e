"""Unit and property tests for the workload scheduler's moving parts:
weighted-fair queueing, admission control, coalescing, per-source limits,
and the fairness / work-conservation / determinism properties."""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.federation_fixtures import build_catalog, build_engine
from repro.adaptive import AdaptiveContext, AdaptivePolicy
from repro.bench import BenchConfig, build_enterprise
from repro.common.errors import AdmissionError, PlanError
from repro.federation import EngineConfig, FederatedEngine
from repro.federation.limits import SourceLimiter
from repro.sched import (
    DEFAULT_TENANTS,
    FairQueue,
    QueryRequest,
    SchedulerConfig,
    Tenant,
    WorkloadScheduler,
    make_workload,
)
from repro.sched.scheduler import _RunState

# -- FairQueue -----------------------------------------------------------------


def test_queue_depth_bound_raises_admission_error():
    queue = FairQueue(depth=2)
    queue.push(QueryRequest("SELECT 1"), 0.0)
    queue.push(QueryRequest("SELECT 2"), 0.0)
    with pytest.raises(AdmissionError) as excinfo:
        queue.push(QueryRequest("SELECT 3"), 0.0)
    assert excinfo.value.queue_depth == 2
    assert excinfo.value.queued == 2
    assert queue.overflows == 1


def test_strict_priority_jumps_the_queue():
    tenants = {
        "batch": Tenant("batch", weight=1.0, priority=0),
        "dash": Tenant("dash", weight=1.0, priority=1),
    }
    queue = FairQueue(tenants=tenants)
    for i in range(3):
        queue.push(QueryRequest(f"b{i}", tenant="batch"), 0.0)
    queue.push(QueryRequest("d0", tenant="dash"), 0.0)
    assert queue.pop().request.sql == "d0"
    assert queue.pop().request.tenant == "batch"


def test_wfq_drains_in_proportion_to_weights():
    """Under backlog a weight-3 tenant gets ~3 dispatches per weight-1."""
    tenants = {"a": Tenant("a", weight=3.0), "b": Tenant("b", weight=1.0)}
    queue = FairQueue(tenants=tenants)
    for i in range(8):  # interleaved arrivals, equal service estimates
        queue.push(QueryRequest(f"a{i}", tenant="a"), 0.0, service_estimate_s=1.0)
        queue.push(QueryRequest(f"b{i}", tenant="b"), 0.0, service_estimate_s=1.0)
    first_eight = [queue.pop().request.tenant for _ in range(8)]
    assert first_eight.count("a") == 6
    assert first_eight.count("b") == 2


def test_fifo_policy_is_pure_arrival_order():
    tenants = {"a": Tenant("a", weight=100.0, priority=5), "b": Tenant("b")}
    queue = FairQueue(tenants=tenants, policy="fifo")
    queue.push(QueryRequest("first", tenant="b"), 0.0)
    queue.push(QueryRequest("second", tenant="a"), 0.0)
    assert [queue.pop().request.sql, queue.pop().request.sql] == [
        "first",
        "second",
    ]
    with pytest.raises(ValueError):
        FairQueue(policy="lifo")


def test_tenant_needs_positive_weight():
    with pytest.raises(ValueError):
        Tenant("broken", weight=0.0)


# -- coalescing through the scheduler ------------------------------------------

#: fixture-schema queries (see federation_fixtures.build_catalog)
Q_CUSTOMERS = "SELECT name, city FROM customers WHERE id = 3"
Q_ORDERS = "SELECT id, total FROM orders WHERE status = 'open'"
Q_JOIN = (
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.total > 50"
)
Q_GROUP = (
    "SELECT c.city, COUNT(*) AS n FROM customers c "
    "JOIN orders o ON c.id = o.cust_id GROUP BY c.city"
)
Q_REGIONS = (
    "SELECT r.region, COUNT(*) AS n FROM customers c "
    "JOIN regions r ON c.city = r.city GROUP BY r.region"
)
QUERY_POOL = [Q_CUSTOMERS, Q_ORDERS, Q_JOIN, Q_GROUP, Q_REGIONS]


def run_workload(requests, engine=None, **config_kwargs):
    engine = engine or build_engine()
    config = SchedulerConfig(**config_kwargs)
    return WorkloadScheduler(engine, config=config).run(requests)


# -- in-flight key safety ------------------------------------------------------


def test_attach_to_a_key_not_in_flight_raises():
    state = _RunState(WorkloadScheduler(build_engine()), [])
    key = ("crm", "SELECT id FROM customers")
    with pytest.raises(KeyError):
        state._attach(key, "follower")
    state.flights[key] = []  # what starting its fetch does
    state._attach(key, "follower")
    assert state.flights[key] == ["follower"]


@given(requests=st.lists(st.sampled_from(QUERY_POOL), min_size=2, max_size=8))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_inflight_attach_never_crosses_keys(requests):
    """A fetch completes only tasks of its own statement: every attached
    token's task key equals its host's key."""
    rides = []
    fetch_done = _RunState._fetch_done

    def watched(state, index, task_id):
        host = next(t for t in state.active[index].tasks if id(t) == task_id)
        rides.extend((host.key, task.key) for _, task in state.flights[host.key])
        fetch_done(state, index, task_id)

    _RunState._fetch_done = watched  # not monkeypatch: hypothesis reruns the body
    try:
        result = run_workload([QueryRequest(sql) for sql in requests], coalesce=True)
    finally:
        _RunState._fetch_done = fetch_done
    assert len(rides) == result.total.coalesced_fetches
    assert all(host == task for host, task in rides)


def test_identical_inflight_fetches_coalesce():
    """Two queries sharing a pushed-down fetch, dispatched together: the
    second attaches to the first's in-flight fetch instead of occupying a
    worker slot, and both still answer correctly."""
    requests = [
        QueryRequest(Q_JOIN, name="host"),
        QueryRequest(Q_JOIN, name="follower"),
    ]
    result = run_workload(requests, coalesce=True)
    assert result.total.coalesced_fetches >= 1
    assert result.total.coalesced_seconds_saved > 0
    host, follower = result.outcomes
    assert host.answered and follower.answered
    engine = build_engine()
    expected = engine.query(Q_JOIN).relation.rows
    assert host.result.relation.rows == expected
    assert follower.result.relation.rows == expected


def test_distinct_fetches_do_not_coalesce():
    result = run_workload(
        [QueryRequest(Q_CUSTOMERS), QueryRequest(Q_ORDERS)], coalesce=True
    )
    assert result.total.coalesced_fetches == 0


def test_coalescing_off_means_no_attachments():
    requests = [QueryRequest(Q_JOIN), QueryRequest(Q_JOIN)]
    result = run_workload(requests, coalesce=False)
    assert result.total.coalesced_fetches == 0
    assert all(o.answered for o in result.outcomes)


# -- admission control through the scheduler -----------------------------------


def test_bounded_queue_rejects_overflow_arrivals():
    requests = [
        QueryRequest(Q_JOIN, name=f"q{i}", arrival_s=0.0) for i in range(6)
    ]
    result = run_workload(requests, max_active=1, queue_depth=2)
    rejected = result.by_status("rejected")
    assert rejected, "overflow arrivals should be rejected"
    assert all("admission queue full" in o.error for o in rejected)
    assert all(o.result is None for o in rejected)
    # everyone else still answered
    assert len(result.answered()) == len(requests) - len(rejected)


def test_expired_deadlines_are_shed_not_executed():
    requests = [QueryRequest(Q_GROUP, name="head", arrival_s=0.0)]
    requests += [
        QueryRequest(Q_CUSTOMERS, name=f"late{i}", arrival_s=0.0, deadline_s=1e-6)
        for i in range(3)
    ]
    result = run_workload(requests, max_active=1)
    shed = result.by_status("shed")
    assert len(shed) == 3
    assert all("shed" in o.error and o.result is None for o in shed)
    assert result.total.shed == 3


def test_admission_budget_rejects_expensive_queries():
    engine = build_engine()
    predicted = engine.predict_elapsed(engine.prepare(Q_JOIN))
    requests = [QueryRequest(Q_JOIN), QueryRequest(Q_CUSTOMERS)]
    result = run_workload(
        requests, engine=build_engine(admission_budget_s=predicted * 0.5)
    )
    assert result.outcomes[0].status == "rejected"
    assert "admission budget" in result.outcomes[0].error


# -- per-source limits ---------------------------------------------------------


def test_source_limiter_caps_real_thread_concurrency():
    """Eight threads share one engine with a one-slot limit on sales: never
    two of them inside sales at once, every slot released, rows unchanged."""
    limited = build_engine(parallel_workers=4, source_limits=(("Sales", 1),))
    limiter = limited.source_limiter
    sql = (
        "SELECT a.id, b.id FROM orders a "
        "JOIN orders b ON a.id = b.cust_id WHERE a.total > 10"
    )
    reference = build_engine(parallel_workers=4).query(sql)
    expected = reference.relation.sorted().rows
    wrong, passes = [], 10
    barrier = threading.Barrier(8)

    def caller():
        barrier.wait(timeout=10)
        for _ in range(passes):
            if limited.query(sql).relation.sorted().rows != expected:
                wrong.append(1)

    threads = [threading.Thread(target=caller) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert limiter.peak["sales"] <= 1 and limiter.drained()
    assert limiter.acquired["sales"] == 8 * passes * reference.metrics.source_queries["sales"]
    assert limiter.limits == {"sales": 1} and "crm" not in limiter.acquired
    assert build_engine().source_limiter is None


def test_engines_from_one_config_count_separately():
    """The caps are a value: each engine built from it owns its limiter."""
    config = EngineConfig(source_limits=(("sales", 1),))
    first = FederatedEngine(build_catalog(), config)
    second = FederatedEngine(build_catalog(), config)
    assert first.source_limiter is not second.source_limiter
    first.query(Q_JOIN)
    first.query(Q_JOIN)
    second.query(Q_JOIN)
    assert first.source_limiter.acquired["sales"] == 2
    assert second.source_limiter.acquired["sales"] == 1


def test_source_limits_are_normalised_into_a_value():
    config = EngineConfig(source_limits=[("Sales", 1), ("CRM", 2)])
    assert config.source_limits == (("crm", 2), ("sales", 1))
    assert config == EngineConfig(source_limits=(("crm", 2), ("SALES", 1)))
    assert hash(EngineConfig(source_limits=(("crm", 2),))) == hash(
        EngineConfig(source_limits=(("Crm", 2),))
    )
    assert config.with_overrides(parallel_workers=2).source_limits == config.source_limits


@pytest.mark.parametrize(
    "limits, message",
    [
        ((("crm", 0),), "positive int"),
        ((("crm", -1),), "positive int"),
        ((("crm", 1.5),), "positive int"),
        ((("crm", "2"),), "positive int"),
        ((("crm", True),), "positive int"),
        ((("crm", 1), ("CRM", 2)), "named twice"),
        ((("crm", 1, 2),), "pairs"),
        (((3, 1),), "pairs"),
        ({"crm": 2}, "pairs"),
    ],
)
def test_source_limits_reject_bad_input(limits, message):
    with pytest.raises(PlanError, match=message):
        EngineConfig(source_limits=limits)


def test_source_limiter_slot_blocks_past_limit():
    limiter = SourceLimiter({"crm": 2})
    entered = []
    release = threading.Event()

    def hold():
        with limiter.slot("crm"):
            entered.append(1)
            release.wait(timeout=5)

    threads = [threading.Thread(target=hold) for _ in range(3)]
    for thread in threads:
        thread.start()
    for _ in range(100):
        if len(entered) == 2:
            break
        threading.Event().wait(0.01)
    assert len(entered) == 2  # the third caller is parked at the limit
    release.set()
    for thread in threads:
        thread.join(timeout=5)
    assert len(entered) == 3
    assert limiter.peak["crm"] == 2


def test_scheduler_source_limits_bound_virtual_concurrency():
    requests = [QueryRequest(Q_JOIN, name=f"q{i}") for i in range(4)]
    limited = run_workload(
        requests,
        engine=build_engine(source_limits=(("sales", 1),)),
        coalesce=False,
    )
    free = run_workload(requests, coalesce=False)
    assert [o.status for o in limited.outcomes] == [
        o.status for o in free.outcomes
    ]
    assert limited.makespan_s >= free.makespan_s  # a cap can only slow you


def test_an_lpt_engine_workload_coalesces_and_obeys_caps():
    """LPT submits a query's fetches longest-predicted-first; the workload
    still pairs each duration with the fetch it timed, so an LPT engine's
    queries coalesce and queue on capped sources like a static engine's."""

    def run(requests, config, **kwargs):
        fixture = build_enterprise(BenchConfig(scale=1, seed=42))
        adaptive = AdaptiveContext(AdaptivePolicy(lpt=True))
        engine = FederatedEngine(
            fixture.catalog(), EngineConfig(adaptive=adaptive, **kwargs)
        )
        return WorkloadScheduler(engine, DEFAULT_TENANTS, config).run(requests)

    coalescing = run(make_workload(40, seed=7, mean_gap_s=0.005), SchedulerConfig())
    assert coalescing.total.coalesced_fetches > 0
    dense = make_workload(40, seed=7, mean_gap_s=0.001)
    config = SchedulerConfig(workers=8, coalesce=False)
    free = run(dense, config)
    capped = run(dense, config, source_limits=(("crm", 1), ("sales", 1)))
    assert capped.makespan_s > free.makespan_s


# -- workload-level properties -------------------------------------------------


@st.composite
def workload(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    requests = []
    arrival = 0.0
    for i in range(n):
        arrival += draw(st.sampled_from([0.0, 0.001, 0.01, 0.05]))
        deadline = draw(st.sampled_from([None, None, 0.001, 0.5, 5.0]))
        requests.append(
            QueryRequest(
                draw(st.sampled_from(QUERY_POOL)),
                tenant=draw(st.sampled_from(["dash", "analytics", "batch"])),
                name=f"q{i}",
                arrival_s=arrival,
                deadline_s=(
                    None if deadline is None else round(arrival + deadline, 6)
                ),
            )
        )
    return requests


@st.composite
def sched_config(draw):
    return dict(
        workers=draw(st.sampled_from([1, 2, 8])),
        max_active=draw(st.sampled_from([None, 1, 2])),
        policy=draw(st.sampled_from(["wfq", "fifo"])),
        coalesce=draw(st.booleans()),
        queue_depth=draw(st.sampled_from([None, None, 3])),
    )


@given(
    requests=workload(),
    config=sched_config(),
    limits=st.sampled_from([(), (("sales", 1),)]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_workload_invariants(requests, config, limits):
    """For ANY workload and scheduler configuration: statuses partition
    the workload, dispatch indices are contiguous, the scheduler never
    idles runnable work, answered rows equal a fresh engine's, and the
    run is deterministic."""
    tenants = {
        "dash": Tenant("dash", weight=4.0, priority=1),
        "analytics": Tenant("analytics", weight=2.0),
        "batch": Tenant("batch", weight=1.0),
    }

    def run():
        return WorkloadScheduler(
            build_engine(source_limits=limits),
            tenants=tenants,
            config=SchedulerConfig(**config),
        ).run(requests)

    result = run()
    summary = result.summary()
    # statuses partition the workload
    assert (
        summary["ok"]
        + summary["partial"]
        + summary["failed"]
        + summary["shed"]
        + summary["rejected"]
    ) == len(requests)
    # dispatch order is contiguous over exactly the executed outcomes
    indices = sorted(
        o.dispatch_index for o in result.outcomes if o.dispatch_index >= 0
    )
    assert indices == list(range(len(indices)))
    executed = {o.status for o in result.outcomes if o.dispatch_index >= 0}
    assert executed <= {"ok", "partial", "failed"}
    # work conservation: no round ends with startable-but-idle work
    assert all(row[-1] == 0 for row in result.audit)
    # no tenant with work in a finite run waits forever
    for outcome in result.outcomes:
        assert outcome.queue_wait_s <= result.makespan_s + 1e-9
    # answered rows are exactly the engine's answers
    oracle = build_engine()
    for outcome in result.answered():
        assert outcome.result.relation.rows == (
            oracle.query(outcome.request.sql).relation.rows
        )
    # determinism: a fresh identical run reproduces the account
    replay = run()
    assert replay.summary() == summary
    assert replay.audit == result.audit
    assert [o.status for o in replay.outcomes] == [
        o.status for o in result.outcomes
    ]


def test_unplannable_sql_fails_without_killing_the_workload():
    requests = [
        QueryRequest("SELECT nope FROM nowhere", name="bad"),
        QueryRequest(Q_CUSTOMERS, name="good"),
    ]
    result = run_workload(requests)
    bad, good = result.outcomes
    assert bad.status == "failed" and bad.error
    assert good.answered


def test_workload_trace_layout_is_explicit():
    requests = [
        QueryRequest(Q_CUSTOMERS, name="a", arrival_s=0.0),
        QueryRequest(Q_ORDERS, name="b", arrival_s=0.02),
    ]
    result = run_workload(requests)
    trace = result.trace
    assert trace.finalized  # manual layout: finalize() must not re-run
    spans = {span.name: span for span in trace.spans()}
    assert spans["query:b"].start_s == pytest.approx(0.02)
    assert spans["query:a"].attrs["tenant"] == "default"
    waits = [s for s in trace.spans() if s.category == "sched.wait"]
    services = [s for s in trace.spans() if s.category == "sched.service"]
    assert len(waits) == len(services) == 2
    assert trace.root.attrs["makespan_s"] == pytest.approx(
        result.makespan_s, abs=1e-9
    )
    # and it serializes (the byte-identity tests live in the oracle suite)
    assert trace.to_json()


def test_scheduler_advances_a_sim_clock_engine():
    """On a SimClock engine, dispatch advances the engine's clock to the
    workload's virtual time (so TTLs and time-windowed behavior see the
    workload timeline); a wall-clock engine is simply left alone."""
    from repro.netsim import SimClock

    clock = SimClock()
    engine = build_engine(clock=clock)
    run_workload([QueryRequest(Q_CUSTOMERS, arrival_s=0.5)], engine=engine)
    assert clock.now() >= 0.5
    # wall-clock engine: no advance attempted, run still succeeds
    result = run_workload([QueryRequest(Q_CUSTOMERS, arrival_s=0.5)])
    assert result.outcomes[0].answered


def test_no_tenant_starves_under_sustained_backlog():
    """A flood from one tenant cannot starve another: with everyone
    arriving at once, the light tenant's queries still dispatch well
    before the flood finishes."""
    tenants = {
        "flood": Tenant("flood", weight=1.0),
        "light": Tenant("light", weight=4.0),
    }
    requests = [
        QueryRequest(Q_JOIN, tenant="flood", name=f"flood{i}") for i in range(12)
    ] + [QueryRequest(Q_CUSTOMERS, tenant="light", name="light0")]
    result = WorkloadScheduler(
        build_engine(),
        tenants=tenants,
        config=SchedulerConfig(workers=2, max_active=1, policy="wfq"),
    ).run(requests)
    light = result.by_tenant("light")[0]
    assert light.answered
    flood_indices = [o.dispatch_index for o in result.by_tenant("flood")]
    # the light query did not wait for the whole flood
    assert light.dispatch_index < max(flood_indices)
