"""Layout oracle: `Trace.finalize()` lays a trace out as the recursive layout did.

`finalize()` places every span once, with the one list scheduler
`makespan` is (`repro.trace.span.list_schedule`). The layout it replaced
re-ran `makespan` recursively from `Span.total_seconds()` /
`children_seconds()` on every read; that code is kept below, verbatim but
for reading spans instead of being their methods, as the reference.

For Q1–Q12 at scale 1 × {healthy, transient faults, partial results} ×
``parallel_workers`` ∈ {1, 2, 4}, and for the seed-7 workload trace, every
span's ``(start_s, lane, seconds)`` and the `to_json()` / `to_chrome()`
exports must equal the reference's. Triples compare at the exports'
nanosecond precision: on Python ≥ 3.12 the reference's serial `sum()` is
compensated, so an extent may differ from left-to-right accumulation in
its last bit. That `finalize()` computes each extent once is counted
(`sys.setprofile`), never timed.
"""

from __future__ import annotations

import copy
import sys
from collections import Counter

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import EIIError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import ErrorRate, FaultInjector, Outage, SimClock, Transient
from repro.sched import DEFAULT_TENANTS, SchedulerConfig, WorkloadScheduler, make_workload
from repro.trace import Tracer
from repro.trace import span as span_module

_ROUND = 9  # the exporters' precision


# -- the reference: the replaced recursive layout ----------------------------------


def ref_makespan(durations: list, workers: int) -> float:
    if not durations:
        return 0.0
    slots = [0.0] * max(1, min(workers, len(durations)))
    for duration in durations:
        slot = min(range(len(slots)), key=lambda i: slots[i])
        slots[slot] += duration
    return max(slots)


def ref_children_seconds(span) -> float:
    totals = [ref_total_seconds(child) for child in span.children]
    if span.parallel_slots:
        return ref_makespan(totals, span.parallel_slots)
    return sum(totals)


def ref_total_seconds(span) -> float:
    return ref_children_seconds(span) + span.self_seconds


def ref_layout(span, start: float, lane: int, out: dict) -> None:
    """``out[id(span)] = (start_s, lane)`` for `span`'s whole subtree."""
    out[id(span)] = (start, lane)
    if span.parallel_slots and span.children:
        slots = [start] * max(1, min(span.parallel_slots, len(span.children)))
        for child in span.children:
            slot = min(range(len(slots)), key=lambda i: slots[i])
            ref_layout(child, slots[slot], lane + slot, out)
            slots[slot] += ref_total_seconds(child)
    else:
        cursor = start
        for child in span.children:
            ref_layout(child, cursor, lane, out)
            cursor += ref_total_seconds(child)


# -- comparing a finalized trace with the reference --------------------------------


def triples(trace) -> list:
    return [
        (round(s.start_s, _ROUND), s.lane, round(s.seconds, _ROUND))
        for s in trace.spans()
    ]


def exports(trace) -> tuple:
    return trace.to_json(), trace.to_chrome()


def reference(trace, placed: dict) -> tuple:
    """The reference's triples and exports: a copy of `trace` carrying the
    reference starts and lanes (`placed`, by span id) and extents."""
    twin = copy.deepcopy(trace)
    for original, span in zip(trace.spans(), twin.spans()):
        span.start_s, span.lane = placed[id(original)]
        span.seconds = ref_total_seconds(original)
    return triples(twin), exports(twin)


def assert_matches_reference(trace, placed: dict) -> None:
    expected_triples, expected_exports = reference(trace, placed)
    assert triples(trace) == expected_triples
    assert exports(trace) == expected_exports
    assert round(trace.elapsed_seconds(), _ROUND) == round(
        ref_total_seconds(trace.root), _ROUND
    )


def query_layout(trace) -> dict:
    placed: dict = {}
    ref_layout(trace.root, 0.0, 0, placed)
    return placed


# -- the matrix ------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixture():
    return build_enterprise(BenchConfig(scale=1, seed=42))


def build_engine(fixture, condition: str, workers: int) -> tuple:
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


def run_queries(fixture, condition: str, workers: int) -> list:
    """Every finished trace, failed queries' included."""
    engine, passes = build_engine(fixture, condition, workers)
    traces = []
    for _ in range(passes):
        for sql in QUERIES.values():
            try:
                engine.query(sql)
            except EIIError:
                pass
            traces.append(engine.tracer.last)
    return traces


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("condition", ["healthy", "transient", "partial"])
def test_query_traces_match_the_recursive_layout(fixture, condition, workers):
    traces = run_queries(fixture, condition, workers)
    assert len(traces) == len(QUERIES) * (2 if condition == "healthy" else 1)
    for trace in traces:
        assert trace.finalized
        assert_matches_reference(trace, query_layout(trace))


def test_the_matrix_reaches_parallel_lanes_faults_and_degraded_branches(fixture):
    """The oracle is only as good as the layouts it sees."""
    names = Counter()
    lanes = set()
    for condition in ("healthy", "transient", "partial"):
        for trace in run_queries(fixture, condition, 4):
            names.update(trace.event_names())
            lanes.update(span.lane for span in trace.spans())
            names.update(
                "cache=" + str(span.attrs["cache"])
                for span in trace.spans() if "cache" in span.attrs
            )
    assert {"retry", "degraded", "cache.hit", "cache=hit", "cache=miss"} <= set(names)
    assert {0, 1, 2} <= lanes  # Q1–Q12 send at most three fetches at once


def test_workload_trace_matches_the_recursive_layout():
    """The seed-7 workload: the schedule places each query span, its queue
    wait and its service; every extent is the recursive layout's."""
    engine = FederatedEngine(
        build_enterprise(BenchConfig(scale=1, seed=42)).catalog(), EngineConfig()
    )
    config = SchedulerConfig(workers=8, policy="wfq", coalesce=True)
    result = WorkloadScheduler(engine, tenants=DEFAULT_TENANTS, config=config).run(
        make_workload(40, seed=7, mean_gap_s=0.005)
    )
    trace = result.trace
    placed = {id(trace.root): (0.0, 0)}
    for outcome, span in zip(result.outcomes, trace.root.children):
        lane = 0
        if outcome.dispatch_index >= 0:
            lane = 1 + outcome.dispatch_index % config.workers
        placed[id(span)] = (outcome.arrival_s, lane)
        if span.children:
            queued, service = span.children
            placed[id(queued)] = (outcome.arrival_s, lane)
            placed[id(service)] = (outcome.dispatch_s, lane)
    assert len(placed) == len(list(trace.spans()))
    assert trace.finalized
    assert_matches_reference(trace, placed)


# -- each extent computed once ----------------------------------------------------


def calls_during(thunk) -> tuple:
    """``(spans placed, list schedules run)`` while `thunk` runs, by span id."""
    place, schedule = span_module._place.__code__, span_module.list_schedule.__code__
    placed: Counter = Counter()
    schedules = 0

    def profile(frame, event, arg):
        nonlocal schedules
        if event != "call":
            return
        if frame.f_code is place:
            placed[id(frame.f_locals["span"])] += 1
        elif frame.f_code is schedule:
            schedules += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return placed, schedules


def test_finalize_computes_each_extent_once(fixture):
    traces = run_queries(fixture, "transient", 2)
    for trace in traces:
        spans = list(trace.spans())
        placed, schedules = calls_during(trace.finalize)
        assert placed == Counter({id(span): 1 for span in spans})
        # one schedule per span with children: a leaf's extent is its own work
        assert schedules == sum(1 for span in spans if span.children)


def test_exports_and_elapsed_read_the_layout_without_recomputing_it(fixture):
    (trace, *_) = run_queries(fixture, "healthy", 4)
    placed, schedules = calls_during(
        lambda: (trace.to_json(), trace.to_chrome(), trace.elapsed_seconds(),
                 trace.pretty())
    )
    assert not placed and schedules == 0
