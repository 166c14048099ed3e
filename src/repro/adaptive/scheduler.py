"""Latency-aware prefetch scheduling (LPT).

`repro.trace.makespan` list-schedules fetches in submission order, so a long
fetch submitted last can leave every worker but one idle. The scheduler
predicts each fetch's duration — calibrated rows × per-source latency
profile when the engine has seen the source before, capability constants
otherwise — and submits the longest-predicted fetches first (the classical
LPT heuristic, within 4/3 of the optimal makespan). Reordering happens
*before* span creation, so traces remain deterministic: submission order is
a pure function of the plan and the store, never of thread completion.
"""

from __future__ import annotations

import threading
from typing import Optional


class LatencyPredictor:
    """Per-source seconds-per-byte profiles, learned from real fetches.

    Own observations win; a `QueryScoreboard` (fed by the tracer across
    queries, possibly from earlier sessions of the same process) is the
    fallback profile; with neither, callers use capability constants.
    """

    def __init__(self, scoreboard=None):
        self.scoreboard = scoreboard
        #: source name -> [calls, seconds, payload_bytes]
        self._profiles: dict[str, list] = {}
        self._lock = threading.Lock()

    def observe(self, source: str, seconds: float, payload_bytes: float) -> None:
        with self._lock:
            profile = self._profiles.get(source)
            if profile is None:
                profile = self._profiles[source] = [0, 0.0, 0.0]
            profile[0] += 1
            profile[1] += max(seconds, 0.0)
            profile[2] += max(payload_bytes, 0.0)

    def _profile(self, source: str) -> Optional[tuple]:
        with self._lock:
            profile = self._profiles.get(source)
            if profile is not None and profile[0] > 0:
                return tuple(profile)
        if self.scoreboard is not None:
            stats = self.scoreboard.sources.get(source)
            if stats is not None and stats.fetches > 0:
                return (stats.fetches, stats.seconds, float(stats.payload_bytes))
        return None

    def predict(self, source: str, payload_bytes: float) -> Optional[float]:
        """Predicted seconds for a fetch shipping `payload_bytes`, or None."""
        profile = self._profile(source)
        if profile is None:
            return None
        calls, seconds, total_bytes = profile
        if total_bytes > 0:
            return seconds / total_bytes * max(payload_bytes, 1.0)
        return seconds / calls


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
