"""Build oracle: a query's trace is built once, when the query finishes.

The query path writes no span. Each component statement's scoped
`Recorder` is that statement's record; the `Execution` keeps the records
in the order they ran, beside its planned fetches and its assembly and
final-transfer seconds, and `repro.trace.build.query_trace` builds the
span tree from them (plus the parse/plan facts) when the query ends.

The digests below were recorded from the engine this replaced, which
wrote each span while the query ran. Every scenario's `to_json()`,
`to_chrome()` and `explain_analyze()` must still hash to them:

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
        "dd06824d2462414eb2c2ea247f395ab1757aa13236a8e65c133a7506e363ef25"
    ),
    "healthy-w1": (
        "779841228bd5378fe14abc5823c4092c8f8e2551eab2a44b691e8183e903cc47"
    ),
    "healthy-w2": (
        "45c4eec109e3f8e601d84fea0f46b6824ee74bdd543d061f77a24e89770d556c"
    ),
    "healthy-w4": (
        "45c4eec109e3f8e601d84fea0f46b6824ee74bdd543d061f77a24e89770d556c"
    ),
    "lpt-adaptive": (
        "ab9e045e67e249c7611713c739a07bead99055aa0bb279bb829731e4d4deaa00"
    ),
    "partial-w1": (
        "4bc7df6ff81aa54468495c7f9796d57b7107a0057cf581d925760d870e752455"
    ),
    "partial-w2": (
        "e2f953442f0d1121031aea148766e979eacbb6492e34bd15440133c84a556fd4"
    ),
    "partial-w4": (
        "5b6246166b764bd1984156c7c83fe5e49937ff394168bc341fa22ffca04be6b7"
    ),
    "refused-at-planning": (
        "9c7688eba23623fb48543a279644fc9da8e0556b927e9257a2df6e5e30edb0a5"
    ),
    "result-cache": (
        "2c8708443283853fe8aa305a2c9bed5a7f209f31b00e6e306b13e4da94240fdf"
    ),
    "strict": (
        "c0ff82fd3b30a46dceaf3b4895d87f71f110db16ad233db4d3b8b9a9d7875aa3"
    ),
    "transient-w1": (
        "7edbab191ca81ac1aec6ce135a3c83475965923c9dfa5fee332225c3e5d87a65"
    ),
    "transient-w2": (
        "1f165ff647e54b09f9fbb7ecc62b807726363795cacb2f9f89cffd24679942da"
    ),
    "transient-w4": (
        "254462539dc28a0490d1fd3ca9c02628ba4a79b1435859551a24ae4ad7f1daa8"
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
