"""Build oracle: a query's trace is built once, when the query finishes.

The query path writes no span. Each component statement's scoped
`Recorder` is that statement's record; the `Execution` keeps the records
in the order they ran, beside its planned fetches and its assembly and
final-transfer seconds, and `repro.trace.build.query_trace` builds the
span tree from them (plus the parse/plan facts) when the query ends.

The digests below were recorded from the engine this replaced, which
wrote each span while the query ran; a scenario running Q10 was re-recorded
once the sales source pre-aggregated Q10's orders, which only its fetch
seconds moved. Every scenario's `to_json()`, `to_chrome()` and
`explain_analyze()` must still hash to them:

* Q1–Q12 at scale 1 × {healthy (fetch cache on, two passes), transient
  faults, partial results} × ``parallel_workers`` ∈ {1, 2, 4};
* an LPT adaptive engine, a result-caching engine, a strict engine, a
  query refused at planning, and queries failing mid-prefetch and
  mid-assembly (through `query()` and a direct `execute_plan()`);
* the seed-7 workload's trace and the traces of the queries it ran.

That no `Span` is constructed outside the build is counted with
`sys.setprofile`. Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.adaptive import AdaptiveContext, AdaptivePolicy
from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import EIIError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import ErrorRate, FaultInjector, Outage, SimClock, Transient
from repro.sched import DEFAULT_TENANTS, SchedulerConfig, WorkloadScheduler, make_workload
from repro.trace import Tracer, build as build_module
from repro.trace.span import Span

#: sha256 of each scenario's exports, recorded from the span-writing engine
DIGESTS = {
    "failing": (
        "d9355f1258dbc5dff3f0dd7a88119e6416adaa2d8e6f73b317df1c8caee4f84b"
    ),
    "healthy-w1": (
        "b4caabd5d3c821cf1686330e02870556cee549718762a72969fe3bfd9fc978a0"
    ),
    "healthy-w2": (
        "ca08348a8041c97e2c17b70a4bc658c12d1852d358843abdaaeecf97d174df3e"
    ),
    "healthy-w4": (
        "ca08348a8041c97e2c17b70a4bc658c12d1852d358843abdaaeecf97d174df3e"
    ),
    "lpt-adaptive": (
        "5eb2f1042da5dd1692587d24d21a8557ecef46ad05bd8a2fcc131f80cb980c1f"
    ),
    "partial-w1": (
        "f5bcab3398421d726e85ed998b6a1a31998cd7485d64d365b10d5739b1dbaf64"
    ),
    "partial-w2": (
        "01b8ece4fcb889d17796ed8fac20e76e1b4cd76f81dafd8b7c4c25ecf4701484"
    ),
    "partial-w4": (
        "06d17555dd8553f15262cc22f1031ee36cd11140dbaac14be59792167d52fa10"
    ),
    "refused-at-planning": (
        "9c7688eba23623fb48543a279644fc9da8e0556b927e9257a2df6e5e30edb0a5"
    ),
    "result-cache": (
        "de16c82296cd9f3538a28d7ed8e24c03a8e140fe40a3a20a0b1eaf7ab40ffce8"
    ),
    "strict": (
        "25dde7bff6c8fd1fadf24e3730327cee0b5e6a36bd40f297a34d0d27a7732f45"
    ),
    "transient-w1": (
        "2e5bc0cf335df9096dd0c2d092ba4ced68c37985a0099a592214b40bbcafe542"
    ),
    "transient-w2": (
        "cc46d3e8a6ca51dfc6502ea0def799e05889ceade4d358267573c87824d5b284"
    ),
    "transient-w4": (
        "0f877556346cc93ed3e0cd0ff094e65062ae09f55e6af6bc92ca408abc4f06ed"
    ),
    "workload-seed7": (
        "613d6d0646c5624b0caa436fe009dd54d3a236450f55825b1435d5b03f2d1d15"
    ),
}


@pytest.fixture(scope="module")
def fixture():
    return build_enterprise(BenchConfig(scale=1, seed=42))


def exported(trace, result=None) -> str:
    analyzed = result.explain_analyze() if result is not None else ""
    return "\n".join((trace.to_json(), trace.to_chrome(), analyzed))


def digest(texts: list) -> str:
    return hashlib.sha256("\n\n".join(texts).encode()).hexdigest()


def run_all(engine, queries, passes: int = 1) -> list:
    """Each query's exports, a failed query's trace included."""
    texts = []
    for _ in range(passes):
        for sql in queries:
            try:
                result = engine.query(sql)
            except EIIError:
                result = None
            texts.append(exported(engine.tracer.last, result))
    return texts


def matrix_engine(fixture, condition: str, workers: int) -> tuple:
    """``(engine, passes)``: healthy runs twice over a fetch cache, so the
    second pass's fetches are cache hits."""
    clock = SimClock()
    if condition == "healthy":
        cache = CacheHierarchy(
            CacheConfig(fetch_enabled=True, result_enabled=False), clock=clock
        )
        config = EngineConfig(
            clock=clock, cache=cache, tracer=Tracer(), parallel_workers=workers
        )
        return FederatedEngine(fixture.catalog(), config), 2
    injector = FaultInjector(seed=5, clock=clock)
    if condition == "transient":
        injector.script("crm", Transient(2), ErrorRate(0.2))
        injector.script("sales", ErrorRate(0.3))
        injector.script("support", Transient(1))
        policy = ResiliencePolicy(max_attempts=4, breaker_failure_threshold=None, seed=5)
    else:  # partial results: support is down for good, its branches degrade
        injector.script("support", Outage(message="support DBMS down"))
        injector.script("finance", Transient(3))
        policy = ResiliencePolicy(max_attempts=2, seed=5)
    config = EngineConfig(
        clock=clock, tracer=Tracer(), parallel_workers=workers, resilience=policy,
        partial_results=condition == "partial",
    )
    return FederatedEngine(fixture.catalog(wrap=injector.wrap), config), 1


def matrix(fixture, condition: str, workers: int) -> list:
    engine, passes = matrix_engine(fixture, condition, workers)
    return run_all(engine, QUERIES.values(), passes)


def lpt_adaptive(fixture) -> list:
    engine = FederatedEngine(
        fixture.catalog(),
        EngineConfig(
            clock=SimClock(), tracer=Tracer(), parallel_workers=2,
            adaptive=AdaptiveContext(AdaptivePolicy(lpt=True)),
        ),
    )
    return run_all(engine, QUERIES.values(), passes=2)


def result_cache(fixture) -> list:
    clock = SimClock()
    cache = CacheHierarchy(CacheConfig(fetch_enabled=True, result_enabled=True), clock=clock)
    engine = FederatedEngine(
        fixture.catalog(), EngineConfig(clock=clock, cache=cache, tracer=Tracer())
    )
    return run_all(engine, QUERIES.values(), passes=2)


def strict(fixture) -> list:
    engine = FederatedEngine(
        fixture.catalog(), EngineConfig(clock=SimClock(), tracer=Tracer(), validate=True)
    )
    refused = (
        "SELECT * FROM credit",
        "SELECT cr.score, c.name FROM credit cr LEFT JOIN customers c ON cr.cust_id = c.id",
    )
    return run_all(engine, [*QUERIES.values(), *refused])


def refused_at_planning(fixture) -> list:
    """No strict pre-flight: the planner itself refuses, after the parse span."""
    engine = FederatedEngine(fixture.catalog(), EngineConfig(tracer=Tracer()))
    return run_all(engine, ["SELECT * FROM credit"])


def failing(fixture) -> list:
    """Queries that raise mid-prefetch and mid-assembly: each exports its
    partial tree with ``error`` on the root, through `query()` and through a
    direct `execute_plan()`."""
    texts = []
    for down, workers in (("crm", 1), ("sales", 2), ("creditsvc", 1), ("support", 4)):
        clock = SimClock()
        injector = FaultInjector(seed=3, clock=clock)
        injector.script(down, Transient(1), Outage(start_call=2))
        engine = FederatedEngine(
            fixture.catalog(wrap=injector.wrap),
            EngineConfig(clock=clock, tracer=Tracer(), parallel_workers=workers),
        )
        texts.extend(run_all(engine, QUERIES.values()))
        for sql in (QUERIES["q4_crm_sales_join"], QUERIES["q11_credit_check"]):
            plan = engine.planner.plan(sql)
            try:
                result = engine.execute_plan(plan)
            except EIIError:
                result = None
            texts.append(exported(engine.tracer.last, result))
    return texts


def workload() -> list:
    engine = FederatedEngine(
        build_enterprise(BenchConfig(scale=1, seed=42)).catalog(),
        EngineConfig(tracer=Tracer()),
    )
    config = SchedulerConfig(workers=8, policy="wfq", coalesce=True)
    result = WorkloadScheduler(engine, tenants=DEFAULT_TENANTS, config=config).run(
        make_workload(40, seed=7, mean_gap_s=0.005)
    )
    return [exported(result.trace), *(exported(t) for t in engine.tracer.traces)]


SCENARIOS = {
    **{
        f"{condition}-w{workers}": (
            lambda fixture, c=condition, w=workers: matrix(fixture, c, w)
        )
        for condition in ("healthy", "transient", "partial")
        for workers in (1, 2, 4)
    },
    "lpt-adaptive": lpt_adaptive,
    "result-cache": result_cache,
    "strict": strict,
    "refused-at-planning": refused_at_planning,
    "failing": failing,
    "workload-seed7": lambda fixture: workload(),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exports_equal_the_span_writing_engines(fixture, name):
    assert digest(SCENARIOS[name](fixture)) == DIGESTS[name]


def test_the_scenarios_reach_every_part_of_a_trace(fixture):
    """The digests are only as good as the traces they cover."""
    names, events, roots = set(), set(), set()
    for scenario in ("healthy-w4", "transient-w2", "partial-w4", "strict", "failing"):
        SCENARIOS[scenario](fixture)
    for condition in ("healthy", "partial"):
        engine, passes = matrix_engine(fixture, condition, 4)
        for _ in range(passes):
            for sql in QUERIES.values():
                try:
                    engine.query(sql)
                except EIIError:
                    pass
                trace = engine.tracer.last
                names.update(span.name.split(":")[0] for span in trace.spans())
                events.update(trace.event_names())
                roots.update(trace.root.attrs)
    assert {"parse", "plan", "execute", "prefetch", "assembly", "fetch",
            "bind_fetch", "final_transfer"} <= names
    assert {"cache.hit", "degraded", "source_failure", "retry"} <= events
    assert {"sql", "rows", "elapsed_s", "partial"} <= roots


# -- the query path constructs no span --------------------------------------------


def spans_built(thunk) -> tuple:
    """``(inside, outside)``: `Span`s constructed while `thunk` runs, with
    and without a build frame below them."""
    init, build = Span.__init__.__code__, build_module.query_trace.__code__
    counts = [0, 0]

    def profile(frame, event, arg):
        if event != "call" or frame.f_code is not init:
            return
        caller = frame.f_back
        while caller is not None and caller.f_code is not build:
            caller = caller.f_back
        counts[caller is None] += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return tuple(counts)


@pytest.mark.parametrize("condition", ["healthy", "transient", "partial"])
def test_no_span_is_constructed_outside_the_build(fixture, condition):
    engine, passes = matrix_engine(fixture, condition, 2)
    built = []

    def run():
        for _ in range(passes):
            for sql in QUERIES.values():
                try:
                    engine.query(sql)
                except EIIError:
                    pass
                built.append(engine.tracer.last)

    inside, outside = spans_built(run)
    assert outside == 0
    assert inside == sum(len(list(trace.spans())) for trace in built) > 0
