"""Policy knobs and the per-engine adaptive context.

`AdaptivePolicy` is the configuration surface (each lever independently
toggleable, so benchmarks can ablate: static vs. feedback vs.
feedback+LPT); `AdaptiveContext` holds the live state — the feedback
store — and is what the engine threads through planning, prefetch and
re-optimization. Everything here is engine-independent, so one context
can be shared by several engines over the same catalog (they then share
calibrations, deliberately; each predicts latencies from its own
per-source record, ``engine.scoreboard``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.adaptive.feedback import FeedbackStore
from repro.adaptive.scheduler import lpt_order, static_fetch_seconds
from repro.adaptive.signature import bind_signature, fetch_signature


@dataclass
class AdaptivePolicy:
    """Which adaptive levers are on, and their thresholds."""

    #: record actuals and plan with calibrated estimates
    feedback: bool = True
    #: re-optimize the assembly tree when actuals drift past the threshold
    replan: bool = True
    #: worst actual/estimated row ratio that triggers mid-query replanning
    replan_threshold: float = 4.0
    #: submit prefetches longest-predicted-first
    lpt: bool = True
    #: feedback store LRU bound
    max_entries: int = 512
    #: EWMA weight of the newest observation
    smoothing: float = 0.5
    #: smoothed-drift ratio that advances the feedback generation
    drift_ratio: float = 2.0


class AdaptiveContext:
    """Live adaptive state threaded through one (or more) engines."""

    def __init__(self, policy: Optional[AdaptivePolicy] = None):
        self.policy = policy or AdaptivePolicy()
        self.store = FeedbackStore(
            max_entries=self.policy.max_entries,
            smoothing=self.policy.smoothing,
            drift_ratio=self.policy.drift_ratio,
        )

    @property
    def generation(self) -> int:
        return self.store.generation

    # -- observation (on the query's caller thread, once per answered statement) ------

    def observe(
        self, node, rows: int, payload_bytes: float, keys: Optional[int] = None, values: tuple = ()
    ) -> None:
        """One answered statement: a whole fetch, or one ``keys``-key bind
        chunk, of a run with `values`."""
        if not self.policy.feedback:
            return
        signature = (
            fetch_signature(node.source.name, node.stmt, values)
            if keys is None
            else bind_signature(node.source.name, node.template, node.right_key, values)
        )
        self.store.observe(
            signature, rows, payload_bytes, tags=node.depends_on, keys=keys
        )

    # -- prediction / scheduling -------------------------------------------------------

    def predict_fetch_seconds(self, node, network, site: str, sources: dict, values: tuple = ()) -> float:
        """`sources`: a snapshot of the engine's per-source record; `values`: the run's."""
        rows: Optional[float] = None
        if self.policy.feedback:
            rows = self.store.calibrated_rows(
                fetch_signature(node.source.name, node.stmt, values)
            )
        if rows is None:
            rows = max(float(node.est_rows), 0.0)
        stats = sources.get(node.source.name.lower())
        if stats is None or not stats.answers:
            return static_fetch_seconds(node, rows, network, site)
        # seconds per byte the source's answers took (per answer, if bytes-free)
        if stats.answer_bytes > 0:
            payload = rows * node.schema.average_row_width()
            return stats.answer_seconds / stats.answer_bytes * max(payload, 1.0)
        return stats.answer_seconds / stats.answers

    def lpt_order(self, fetches: list, network, site: str, scoreboard, values: tuple = ()) -> list:
        sources = scoreboard.snapshot()
        durations = [
            self.predict_fetch_seconds(node, network, site, sources, values) for node in fetches
        ]
        return lpt_order(fetches, durations)

    # -- maintenance -------------------------------------------------------------------

    def clear(self) -> int:
        return self.store.clear()

    def render(self) -> str:
        return self.store.render()
