"""Outside-in tracing: timing proxies at the engine's public seams.

Nothing under `src/` knows it is being timed. Sources are wrapped through
`fixture.catalog(wrap=...)` (the seam `netsim.faults.FaultySource` uses);
the cache hierarchy and the planner are subclasses that time the public
methods the engine calls, passed in as `EngineConfig(cache=, planner=)`.
Layers with no seam (`sql`, the source-side `engine`, `netsim` byte
accounting) are sized by replaying the inputs the proxies captured through
those layers' public functions. Spans hold raw clock readings; every time
derived from them is scaled to reference time (`measure.Reference`).

A span is ``(layer, name, start_ns, end_ns, thread, query, n)``: `query` is
the id of the read that caused it (None between reads, e.g. an
invalidation after a write); `n` is the layer's count for the call (rows a
source returned, -1 if it raised; entries an invalidation evicted).
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict

import repro
from repro.cache import CacheHierarchy
from repro.federation import EngineConfig
from repro.federation.planner import FederatedPlanner
from repro.netsim import SimClock
from repro.sql.ast import InList
from repro.sql.exprutil import walk
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.trace import Tracer

from measure import Reference, mean

SPAN_FIELDS = ("layer", "name", "start_ns", "end_ns", "thread", "query", "n")
ROOT_LAYER = "federation.engine"
SOURCE_NAMES = ("crm", "sales", "support", "finance", "marketing", "creditsvc", "docs")

clock = time.perf_counter_ns


class Recorder:
    """In-memory span store shared by the proxies of one traced stack."""

    def __init__(self):
        self.spans: list = []
        self.query = None  # id of the read in flight
        self.queries = 0
        #: while set, sources keep (source, statement, relation) and the
        #: loop keeps final relations, as inputs for the replays
        self.capturing = False
        self.captured: list = []
        self.finals: list = []

    def span(self, layer, name, start, end, n=0) -> None:
        # list.append is atomic under the GIL: prefetch threads share this
        self.spans.append(
            (layer, name, start, end, threading.get_ident(), self.query, n)
        )

    def begin_query(self) -> None:
        self.query = self.queries
        self.queries += 1

    def end_query(self, name, start, end, result) -> None:
        self.span(ROOT_LAYER, name, start, end)
        self.query = None
        if self.capturing and result is not None:
            self.finals.append(result.relation)

    def instrument(self, fixture, config: EngineConfig):
        """The `Workload.build` hook: same engine, probes at every seam."""
        catalog = fixture.catalog(wrap=lambda source: TimedSource(source, self))
        # a throwaway engine resolves the defaults (network, cache levels)
        # the probes must mirror
        resolved = repro.connect(catalog, config)
        config = config.with_overrides(
            network=resolved.network,
            cache=TimedCache(self, resolved.cache.config, resolved.clock),
            planner=TimedPlanner(
                self,
                catalog,
                network=resolved.network,
                semijoin=config.semijoin,
                choose_assembly_site=config.choose_assembly_site,
            ),
        )
        return catalog, config

    def write(self, path, reference: Reference) -> None:
        """One JSON object per line: the reference-kernel samples first
        (`layer` = "reference"), then every span, all with raw clocks."""
        with open(path, "w") as out:
            for end, cost in zip(reference.ends, reference.costs):
                sample = ("reference", "kernel", end - cost, end, None, None, 0)
                out.write(json.dumps(dict(zip(SPAN_FIELDS, sample))) + "\n")
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


class TimedSource:
    """Duck-typed `DataSource` proxy timing `execute_select` (the shape of
    `repro.netsim.faults.FaultySource`)."""

    def __init__(self, inner, recorder: Recorder):
        self.name = inner.name
        self.capabilities = inner.capabilities
        self.inner = inner
        self.recorder = recorder

    def table_names(self):
        return self.inner.table_names()

    def schema_of(self, table):
        return self.inner.schema_of(table)

    def stats_of(self, table):
        return self.inner.stats_of(table)

    def estimated_rows(self, table):
        return self.inner.estimated_rows(table)

    def execute_select(self, stmt, metrics=None):
        recorder = self.recorder
        start = clock()
        try:
            relation = self.inner.execute_select(stmt, metrics)
        except Exception:
            recorder.span("sources", self.name, start, clock(), n=-1)
            raise
        recorder.span("sources", self.name, start, clock(), n=len(relation))
        if recorder.capturing:
            recorder.captured.append((self.inner, stmt, relation))
        return relation

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TimedCache(CacheHierarchy):
    """A `CacheHierarchy` whose engine-facing methods record a span each."""

    def __init__(self, recorder: Recorder, config, engine_clock):
        super().__init__(config, clock=engine_clock)
        self.recorder = recorder

    def invalidate_table(self, table):
        start = clock()
        counts = super().invalidate_table(table)
        self.recorder.span(
            "cache", "invalidate_table", start, clock(), n=sum(counts.values())
        )
        return counts


def _timed_cache_method(name):
    inner = getattr(CacheHierarchy, name)

    def method(self, *args, **kwargs):
        start = clock()
        try:
            return inner(self, *args, **kwargs)
        finally:
            self.recorder.span("cache", name, start, clock())

    method.__name__ = name
    return method


for _name in ("get_plan", "put_plan", "get_fetch", "put_fetch", "get_result", "put_result"):
    setattr(TimedCache, _name, _timed_cache_method(_name))


class TimedPlanner(FederatedPlanner):
    """A `FederatedPlanner` recording a span around every `plan()`."""

    def __init__(self, recorder: Recorder, catalog, **kwargs):
        super().__init__(catalog, **kwargs)
        self.recorder = recorder

    def plan(self, query):
        start = clock()
        try:
            return super().plan(query)
        finally:
            self.recorder.span("federation.planner", "plan", start, clock())


# -- folding spans into per-layer metrics --------------------------------------


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_metrics(recorder: Recorder, reference: Reference, writes: int) -> dict:
    """Per-layer times (reference time, means over all traced reads) and
    counts, folded from the recorder's spans."""
    by_query = defaultdict(list)
    invalidated = 0
    for span in recorder.spans:
        if span[5] is not None:
            by_query[span[5]].append(span)
        elif span[1] == "invalidate_table":
            invalidated += span[6]

    root_ns = self_ns = source_busy_ns = cache_ns = 0
    plan_ns: list = []
    source_ns = defaultdict(list)
    counts = defaultdict(int)
    for query, spans in by_query.items():
        root = next(span for span in spans if span[0] == ROOT_LAYER)
        children = [span for span in spans if span[0] != ROOT_LAYER]
        for layer, name, start, end, _, _, n in children:
            if layer == "sources":
                counts["source_calls"] += 1
                counts["source_rows"] += max(n, 0)
                counts["source_errors"] += n < 0
            elif layer == "federation.planner":
                counts["plans"] += 1
        lo, hi = root[2], root[3]
        scale = reference.scale(lo, hi)  # the children ran inside [lo, hi]
        root_ns += (hi - lo) * scale
        covered = covered_ns(((s[2], s[3]) for s in children), lo, hi)
        self_ns += (hi - lo - covered) * scale
        source_busy_ns += scale * covered_ns(
            ((s[2], s[3]) for s in children if s[0] == "sources"), lo, hi
        )
        for layer, name, start, end, _, _, _ in children:
            if layer == "sources":
                source_ns[name].append((end - start) * scale)
            elif layer == "cache":
                cache_ns += (end - start) * scale
            else:
                plan_ns.append((end - start) * scale)

    queries = max(len(by_query), 1)
    all_source_ns = [ns for spans in source_ns.values() for ns in spans]
    metrics = {
        "federation.query_ms": root_ns / 1e6 / queries,
        "federation.self_ms": self_ns / 1e6 / queries,
        "federation.self_share": self_ns / max(root_ns, 1),
        "planner.plan_ms": mean(plan_ns) / 1e6,
        "planner.calls_per_query": counts["plans"] / queries,
        "cache.busy_ms": cache_ns / 1e6 / queries,
        "cache.invalidated_per_write": invalidated / max(writes, 1),
        "sources.execute_ms": mean(all_source_ns) / 1e6,
        "sources.calls_per_query": counts["source_calls"] / queries,
        "sources.rows_per_query": counts["source_rows"] / queries,
        "sources.errors_per_query": counts["source_errors"] / queries,
        "sources.busy_share": source_busy_ns / max(root_ns, 1),
    }
    for name in SOURCE_NAMES:
        metrics[f"sources.{name}.execute_ms"] = mean(source_ns[name]) / 1e6
    return metrics


def hit_ratios(before: dict, after: dict) -> dict:
    """`CacheHierarchy.stats()` deltas as hit ratios (0 for a level that is
    off or was never asked)."""
    out = {}
    for level in ("plan", "fetch", "result"):
        hits = after.get(level, {}).get("hits", 0) - before.get(level, {}).get("hits", 0)
        misses = (
            after.get(level, {}).get("misses", 0)
            - before.get(level, {}).get("misses", 0)
        )
        out[f"cache.{level}_hit_ratio"] = hits / max(hits + misses, 1)
    return out


# -- replays: layers that have no seam -----------------------------------------


def median_pass(items: list, step, reference: Reference, budget_s: float) -> list:
    """Replay `step(item)` (-> list of ns, one per metric) over `items`, pass
    after pass until `budget_s` is spent (at least once). Every item is
    scaled to reference time on its own, like an operation of the timed
    loop; returns the per-metric pass totals, median over passes."""
    passes = []
    deadline = time.perf_counter() + budget_s
    while not passes or time.perf_counter() < deadline:
        timed = []
        for item in items:
            reference.maybe_sample()
            start = clock()
            costs = step(item)
            timed.append((start, clock(), costs))
        passes.append(timed)
    reference.sample()
    totals = []
    for timed in passes:
        total = [0.0] * len(timed[0][2])
        for start, end, costs in timed:
            scale = reference.scale(start, end)
            for index, ns in enumerate(costs):
                total[index] += ns * scale
        totals.append(total)
    return [statistics.median(column) for column in zip(*totals)]


def replay_sql(texts: list, reference: Reference, budget_s: float) -> dict:
    """`sql`: parse each statement text and print it back (what
    `canonical_statement` does to every query before any cache is asked)."""

    def step(text):
        start = clock()
        statement = parse(text)
        middle = clock()
        to_sql(statement)
        return [middle - start, clock() - middle]

    parse_ns, print_ns = median_pass(texts, step, reference, budget_s)
    return {
        "sql.parse_ms": parse_ns / 1e6 / len(texts),
        "sql.print_ms": print_ns / 1e6 / len(texts),
    }


def replay_engine(captured: list, reference: Reference, budget_s: float) -> dict:
    """Source-side `engine`: the four steps `RelationalSource.execute_select`
    makes, on every pushed-down statement a relational source received."""
    statements = [
        (source.engine, stmt) for source, stmt, _ in captured if hasattr(source, "engine")
    ]
    names = ("logical_plan", "estimate", "lower", "run")
    if not statements:
        return {f"engine.{name}_ms": 0.0 for name in names} | {
            "engine.in_list_keys_per_stmt": 0.0
        }

    def step(statement):
        engine, stmt = statement
        t0 = clock()
        logical = engine.logical_plan(stmt)
        t1 = clock()
        engine.cost_model.estimate(logical)
        t2 = clock()
        physical = engine.lower(logical)
        t3 = clock()
        physical.relation()
        return [t1 - t0, t2 - t1, t3 - t2, clock() - t3]

    metrics = {
        f"engine.{name}_ms": ns / 1e6 / len(statements)
        for name, ns in zip(names, median_pass(statements, step, reference, budget_s))
    }
    in_list_keys = sum(
        len(node.items)
        for _, stmt in statements
        if stmt.where is not None
        for node in walk(stmt.where)
        if isinstance(node, InList)
    )
    metrics["engine.in_list_keys_per_stmt"] = in_list_keys / len(statements)
    return metrics


def replay_size_bytes(
    relations: list, queries: int, reference: Reference, budget_s: float
) -> dict:
    """`netsim` byte accounting: `Relation.size_bytes()` on every relation a
    source returned and every final answer (the engine sizes each once or
    more per query)."""

    def step(relation):
        start = clock()
        relation.size_bytes()
        return [clock() - start]

    (total_ns,) = median_pass(relations, step, reference, budget_s)
    return {"netsim.size_bytes_ms": total_ns / 1e6 / max(queries, 1)}


def observer_ratios(fixture, steps: list, reference: Reference, budget_s: float) -> dict:
    """`trace` / `telemetry`: on/off wall ratio, paired inside one process.

    Three engines over one fixture (plain, tracer on, telemetry on) take
    turns running the same pass, the turn order rotating so none always
    inherits another's garbage. Each turn yields its own on/off ratios -
    the three passes of a turn are at most 0.3 s apart, so they mostly see
    the same machine - and the median over turns is reported.
    """
    texts = [step.sql for step in steps if step.sql is not None]
    engines = [
        repro.connect(fixture.catalog(), EngineConfig(clock=SimClock(), **extra))
        for extra in ({}, {"tracer": Tracer()}, {"telemetry": True})
    ]

    def one_pass(engine) -> float:
        reference.maybe_sample()
        start = clock()
        for text in texts:
            engine.query(text)
        end = clock()
        reference.sample()
        return (end - start) * reference.scale(start, end)

    for engine in engines:
        one_pass(engine)  # warm the plan caches
    ratios: list = []
    deadline = time.perf_counter() + budget_s
    while not ratios or time.perf_counter() < deadline:
        walls = [0.0] * len(engines)
        for offset in range(len(engines)):
            index = (len(ratios) + offset) % len(engines)
            walls[index] = one_pass(engines[index])
        ratios.append((walls[1] / walls[0], walls[2] / walls[0]))
    return {
        "trace.on_off_ratio": statistics.median(r[0] for r in ratios),
        "telemetry.on_off_ratio": statistics.median(r[1] for r in ratios),
    }
