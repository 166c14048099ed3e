"""A query's span tree, built once when the query ends, from what it did.

The query path writes no span: its `Execution` (`repro.federation.execution`)
keeps each statement's record (its scoped `Recorder`) in the order they ran,
the fetches its prefetch submitted and its assembly and final-transfer
seconds. `query_trace` reads them, with the parse/plan facts, into the tree
`Tracer.finish` lays out. It duck-types the federation layer, which imports
this package.
"""

from __future__ import annotations

from itertools import count

from repro.sql.shape import Bound
from repro.trace.span import Trace


def query_trace(name: str, attrs: dict, planned=None, run=None) -> Trace:
    """The tree of one finished query, `attrs` on its root.

    `planned` is None when planning was not reached, ``()`` when it raised
    (the tree shows the parse alone), else ``(plan, was_cached)``; `run` is
    the query's `Execution`, if it started one.
    """
    trace = Trace(name, **attrs)
    root = trace.root
    if attrs.get("result_cache") == "hit":  # answered whole from the result cache
        root.event("cache.result_hit")
    if planned is not None:
        root.child("parse", category="parse", sql=attrs["sql"])
    if planned:
        plan, cached = planned
        root.child(
            "plan", category="plan", cached=cached, assembly_site=plan.assembly_site,
            fetches=len(plan.fetches), bind_joins=len(plan.bind_joins),
        )
    if run is not None:
        _execute(trace, run)
    return trace


def _execute(trace: Trace, run) -> None:
    """`run`'s ``execute`` subtree, each plan node's spans kept on `trace`.

    A span's ``node`` tag is deterministic (an ``id()`` would leak allocation
    order into the export): ``fetch[i]`` / ``bind[i]`` by plan position, then
    fetches the plan did not list (a replan converted a bind join), in order.
    """
    plan, tags = run.plan, {}
    tags.update((id(node), f"fetch[{i}]") for i, node in enumerate(plan.fetches))
    tags.update((id(node), f"bind[{i}]") for i, node in enumerate(plan.bind_joins))
    late = count(len(plan.fetches))

    def statement(parent, node, record=None) -> None:
        bind = record is not None and record.chunk is not None
        attrs = {"chunk": record.chunk, "keys": record.keys} if bind else {}
        if id(node) not in tags:
            tags[id(node)] = f"fetch[{next(late)}]"
        category, source = ("bind_fetch" if bind else "fetch"), node.source.name
        span = parent.child(
            f"{category}:{source}", category, source=source,
            sql=str(Bound(node.template if bind else node.stmt, run.values)),  # the constants it ran with
            node=tags[id(node)], **attrs,
        )
        trace.node_spans.setdefault(id(node), []).append(span)
        if record is None:
            return  # planned, never run: the query failed first
        span.self_seconds, span.events = record.seconds, record.events
        span.set(
            rows=record.rows, payload_bytes=record.payload_bytes,
            wire_bytes=record.wire_bytes,
        )
        for key, value in (("cache", record.cache), ("failover_to", record.failover_to)):
            if value is not None:
                span.attrs[key] = value
        if record.was_degraded:
            span.attrs["degraded"] = True

    execute = trace.root.child("execute", category="execute")
    execute.events = run.record.events
    prefetch = execute.child(
        "prefetch", category="prefetch", parallel_slots=run.engine.parallel_workers
    )
    ran = {id(record.node): record for record in run.statements[: run.prefetched]}
    for node in run.planned:  # each has a span: one listed twice runs once
        statement(prefetch, node, ran.pop(id(node), None))
    if run.prefetched is None:
        return  # the prefetch raised: assembly never began
    assembly = execute.child("assembly", category="assembly", site=run.site)
    for record in run.statements[run.prefetched :]:
        statement(assembly, record.node, record)
    if run.assembled is not None:
        assembly.self_seconds, transfer_seconds = run.assembled
        shipped = run.metrics.transfers[-1]  # the final result to the client
        execute.child(
            "final_transfer", category="transfer", rows=shipped.rows,
            payload_bytes=shipped.payload_bytes, wire_bytes=shipped.wire_bytes,
        ).self_seconds = transfer_seconds
