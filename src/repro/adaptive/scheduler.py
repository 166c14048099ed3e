"""Latency-aware prefetch scheduling (LPT).

`repro.trace.makespan` list-schedules fetches in submission order, so a long
fetch submitted last can leave every worker but one idle. The scheduler
predicts each fetch's duration — calibrated rows × the seconds per byte
the engine's per-source record (``engine.scoreboard``) holds for the
source's answers so far, capability constants before the first — and
submits the longest-predicted fetches first (the classical LPT
heuristic, within 4/3 of the optimal makespan). Submission order is a
pure function of the plan and the store, never of thread completion, so the
trace built from it is deterministic.
"""

from __future__ import annotations


def static_fetch_seconds(node, rows: float, network, site: str) -> float:
    """Capability-constant duration prediction (no history needed)."""
    caps = node.source.capabilities
    payload = int(max(rows, 0.0) * node.schema.average_row_width())
    return (
        caps.per_query_overhead_s
        + max(rows, 0.0) * caps.time_per_cost_unit_s
        + network.transfer_seconds(node.source.name, site, payload, caps.wire_format)
    )


def lpt_order(fetches: list, durations: list) -> list:
    """Fetches sorted longest-predicted-first; ties keep submission order."""
    order = sorted(range(len(fetches)), key=lambda i: (-durations[i], i))
    return [fetches[i] for i in order]
