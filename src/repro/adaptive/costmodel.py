"""A cost model that prefers calibrated actuals over textbook guesses.

`FeedbackCostModel` overrides per-node estimation: a fetch (or a logical
subtree that *would* be pushed as one component query) whose signature has
recorded actuals is estimated at its calibrated row count; a bind join with
a calibrated per-key yield is estimated from the driving side's keys. Every
other node falls through to the classical `CostModel`, so calibration
composes with the static estimator instead of replacing it.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.cost import CostModel, PlanCost

from repro.adaptive.feedback import FeedbackStore
from repro.adaptive.signature import (
    bind_signature,
    fetch_signature,
    subtree_signature,
)


class FeedbackCostModel(CostModel):
    """Wraps the static model with LEO-style learned cardinalities."""

    def __init__(self, store: FeedbackStore, catalog):
        super().__init__(catalog)
        self.store = store
        self.catalog = catalog

    def _estimate_node(self, plan) -> PlanCost:
        if len(self.store) == 0:
            return super()._estimate_node(plan)
        calibrated = self._calibrated(plan)
        if calibrated is not None:
            return calibrated
        return super()._estimate_node(plan)

    # -- calibration lookups --------------------------------------------------------

    def _calibrated(self, plan) -> Optional[PlanCost]:
        from repro.federation.nodes import LogicalBindJoin, LogicalFetch

        if isinstance(plan, LogicalFetch):
            rows = self.store.calibrated_rows(
                fetch_signature(plan.source.name, plan.stmt, self.values)
            )
            if rows is None:
                return None
            stats = plan.est.column_stats if plan.est is not None else {}
            return PlanCost(rows, rows, stats)

        if isinstance(plan, LogicalBindJoin):
            per_key = self.store.calibrated_per_key(
                bind_signature(plan.source.name, plan.template, plan.right_key, self.values)
            )
            if per_key is None:
                return None
            left = self.estimate(plan.left)
            fetched = max(left.rows * per_key, 0.0)
            # INNER output is bounded by the probe matches; LEFT keeps drivers.
            rows = max(fetched, left.rows) if plan.kind == "LEFT" else fetched
            return PlanCost(max(rows, 0.0), left.cost + fetched, left.column_stats)

        signature = subtree_signature(plan, self.catalog, self.values)
        if signature is None:
            return None
        rows = self.store.calibrated_rows(signature)
        if rows is None:
            return None
        base = super()._estimate_node(plan)
        # Scale the subtree's cost with its corrected cardinality so the
        # operators above it (and the DP search) see a consistent estimate.
        scale = rows / base.rows if base.rows > 0 else 1.0
        return PlanCost(rows, max(base.cost * scale, rows), base.column_stats)
