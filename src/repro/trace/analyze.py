"""EXPLAIN ANALYZE: the executed plan annotated with actuals from a trace.

Rendering is driven by the *physical* operator tree the assembly site
actually ran, with per-operator actual row counts (captured by
`instrument_physical`) and, for remote operators, the simulated seconds,
bytes, cache and resilience annotations on their spans
(`Trace.node_spans`, kept by the trace build). The per-node seconds
plus the assembly and final-transfer lines sum (±ε) to the query's
`MetricsCollector.simulated_seconds` — the whole account, cut by plan node
instead of poured into one counter.

Everything here duck-types the federation layer (`op.node`, `span.attrs`)
instead of importing it, because `repro.federation.engine` imports this
package.
"""

from __future__ import annotations

from typing import Optional


def _walk_ops(op):
    yield op
    for child in op.children:
        yield from _walk_ops(child)


def instrument_physical(root) -> None:
    """Per-instance wrap of `run()` so each operator records its row count.

    Instance-attribute shadowing: the wrapped callable is stored on the
    operator instance, so parents invoking ``self.child.run()`` hit it
    without any change to the operator classes. Used only when tracing is
    on, so the untraced hot path stays untouched. A tree is lowered fresh
    for each execution, so it is wrapped once.
    """
    for op in _walk_ops(root):
        def wrapped(values=(), original=op.run, op=op):
            rows = original(values)
            op.actual_rows = len(rows)
            return rows

        op.run = wrapped


def _fetch_annotations(spans) -> str:
    seconds = sum(span.self_seconds for span in spans)
    rows = sum(int(span.attrs.get("rows", 0) or 0) for span in spans)
    payload = sum(int(span.attrs.get("payload_bytes", 0) or 0) for span in spans)
    wire = sum(int(span.attrs.get("wire_bytes", 0) or 0) for span in spans)
    retries = sum(1 for s in spans for e in s.events if e.name == "retry")
    notes = []
    cache_states = {str(span.attrs.get("cache")) for span in spans if "cache" in span.attrs}
    if cache_states:
        notes.append("cache=" + "/".join(sorted(cache_states)))
    if any(e.name == "cache.stale_hit" for s in spans for e in s.events):
        notes.append("stale")
    if retries:
        notes.append(f"retries={retries}")
    if any("failover_to" in span.attrs for span in spans):
        targets = sorted(
            str(span.attrs["failover_to"]) for span in spans if "failover_to" in span.attrs
        )
        notes.append("failover=" + "/".join(targets))
    if any(span.attrs.get("degraded") for span in spans):
        notes.append("DEGRADED")
    if len(spans) > 1:
        notes.append(f"chunks={len(spans)}")
    tail = (" " + " ".join(notes)) if notes else ""
    return (
        f"rows={rows} seconds={seconds:.9f} payload={payload}B wire={wire}B{tail}"
    )


def explain_analyze(result) -> str:
    """Render the EXPLAIN ANALYZE text for an executed `FederatedResult`."""
    if result.from_cache:
        return (
            "EXPLAIN ANALYZE: result served whole from the result cache "
            "(no execution, 0 simulated seconds this run)"
        )
    if getattr(result, "physical", None) is None or result.trace is None:
        return (
            "EXPLAIN ANALYZE unavailable: run the query with analyze=True "
            "(or attach a Tracer to the engine)"
        )
    trace = result.trace
    total_work = result.metrics.simulated_seconds

    def pct(seconds: float) -> str:
        if total_work <= 0:
            return "0.0%"
        return f"{100.0 * seconds / total_work:.1f}%"

    lines = [
        "EXPLAIN ANALYZE (simulated time)",
        f"assembly site: {result.plan.assembly_site}",
        f"total: elapsed={result.elapsed_seconds:.9f}s "
        f"work={total_work:.9f}s rows={len(result.relation)}"
        + (" PARTIAL" if result.is_partial else ""),
    ]

    def render(op, depth: int) -> None:
        label = op.explain_label(result.values)
        annotations = []
        rows = getattr(op, "actual_rows", None)
        spans = trace.node_spans.get(id(getattr(op, "node", None)))
        if spans:
            annotations.append(_fetch_annotations(spans))
            seconds = sum(span.self_seconds for span in spans)
            annotations.append(f"({pct(seconds)} of work)")
        elif rows is not None:
            annotations.append(f"rows={rows} seconds=0.000000000")
        tail = ("  [" + " ".join(annotations) + "]") if annotations else ""
        lines.append("  " * depth + label + tail)
        for child in op.children:
            render(child, depth + 1)

    render(result.physical, 1)

    assembly = trace.find("assembly")
    if assembly is not None:
        lines.append(
            f"assembly compute: seconds={assembly.self_seconds:.9f} "
            f"({pct(assembly.self_seconds)} of work)"
        )
    final = trace.find("final_transfer")
    if final is not None:
        lines.append(
            f"final transfer: rows={final.attrs.get('rows', 0)} "
            f"payload={final.attrs.get('payload_bytes', 0)}B "
            f"seconds={final.self_seconds:.9f} ({pct(final.self_seconds)} of work)"
        )
    return "\n".join(lines)


def analyzed_node_seconds(result) -> Optional[float]:
    """Sum of the per-node seconds EXPLAIN ANALYZE reports (None if no trace)."""
    if result.trace is None:
        return None
    trace = result.trace
    total = sum(
        span.self_seconds for spans in trace.node_spans.values() for span in spans
    )
    for name in ("assembly", "final_transfer"):
        span = trace.find(name)
        if span is not None:
            total += span.self_seconds
    return total
