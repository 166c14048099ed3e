"""Span-based tracing and profiling for the federated query pipeline.

The mediator is the one place every byte and every decision passes
through; this package is where it observes them. A `Tracer` attached to a
`FederatedEngine` gets a deterministic tree of `Span`s per query — parse →
plan → parallel per-source fetches → retries/backoff → assembly → final
transfer — on *simulated* time, with structured attributes (pushed-down
SQL, rows/bytes, cache hit/miss, breaker state) and point-in-time `Event`s
(``retry``, ``breaker.open``, ``cache.stale_hit``, ``degraded``), built
once from the query's record when it ends (`build.query_trace`) and laid
out in one pass by `Trace.finalize()`, with the list scheduler `makespan` is.

On top of the raw trees:

* `explain_analyze` — an EXPLAIN ANALYZE-style rendering of the executed
  plan with per-node actuals and % of total simulated time;
* `QueryScoreboard` — the engine's per-source record (``engine.scoreboard``,
  kept traced or not): latency history (p50/p95/max), byte totals, cache,
  failure and retry counts across every query;
* `Trace.to_json()` / `Trace.to_chrome()` — exporters, the latter in the
  Chrome/Perfetto trace-event format so a real trace viewer can open a
  federated query.

The default is `NullTracer`: with tracing off no tree is built, and the
query path is the same either way.
"""

from repro.telemetry.stats import percentile
from repro.trace.analyze import analyzed_node_seconds, explain_analyze, instrument_physical
from repro.trace.export import trace_to_chrome, trace_to_dict, trace_to_json
from repro.trace.scoreboard import QueryScoreboard, SourceStats
from repro.trace.span import Event, Span, Trace, makespan
from repro.trace.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Event",
    "NULL_TRACER",
    "NullTracer",
    "QueryScoreboard",
    "SourceStats",
    "Span",
    "Trace",
    "Tracer",
    "analyzed_node_seconds",
    "explain_analyze",
    "instrument_physical",
    "makespan",
    "percentile",
    "trace_to_chrome",
    "trace_to_dict",
    "trace_to_json",
]
