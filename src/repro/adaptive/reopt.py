"""Mid-query re-optimization of the assembly plan.

After `_prefetch` materializes the component relations, their actual
cardinalities are free. When the worst actual-vs-estimated error ratio
crosses the policy threshold, the assembly tree above the (already
materialized, identity-preserved) fetches is re-ordered with a cost model
that answers with actuals, and bind joins whose driving side turned out too
large for key shipping are converted to ordinary hash joins over a plain
fetch. The original `FederatedPlan` is never mutated — it may live in the
plan cache — and the report makes the decision observable in `explain()`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.cost import CostModel, PlanCost
from repro.engine.joinorder import DP_LIMIT, reorder_joins
from repro.engine.logical import LogicalJoin
from repro.federation.nodes import LogicalBindJoin, LogicalFetch
from repro.sql.ast import BinaryOp
from repro.sql.exprutil import conjoin, split_conjuncts


@dataclass
class ReplanReport:
    """What mid-query re-optimization decided, and why."""

    root: object
    worst_ratio: float
    threshold: float
    #: (source, estimated rows, actual rows) per materialized fetch
    corrections: list = field(default_factory=list)
    converted_bind_joins: int = 0

    def describe(self) -> str:
        worst = (
            f"replanned: worst cardinality error {self.worst_ratio:.1f}x "
            f">= {self.threshold:.1f}x threshold"
        )
        if self.converted_bind_joins:
            worst += f"; {self.converted_bind_joins} bind join(s) -> hash join"
        return worst

    def pretty(self, values: tuple = ()) -> str:
        """The new root, each `Param` shown as its constant in `values`."""
        return "\n".join("  " + line for line in self.root.pretty(values=values).splitlines())


class ActualsCostModel(CostModel):
    """Static model, except materialized fetches answer with actual rows."""

    def __init__(self, stats_provider, actual_rows: dict):
        super().__init__(stats_provider)
        self.actual_rows = actual_rows

    def _estimate_node(self, plan) -> PlanCost:
        if isinstance(plan, LogicalFetch):
            rows = self.actual_rows.get(id(plan))
            if rows is not None:
                stats = plan.est.column_stats if plan.est is not None else {}
                return PlanCost(rows, rows, stats)
        return super()._estimate_node(plan)


def maybe_replan(plan, execution, planner, threshold: float) -> Optional[ReplanReport]:
    """Re-optimize `plan.root` against actuals; None when not warranted.

    Fetch nodes are preserved by identity, so the execution's per-node result
    memo still serves them during assembly — replanning changes how the
    already-fetched relations combine, never re-fetches them.
    """
    actuals: dict[int, float] = {}
    corrections: list = []
    worst = 1.0
    for fetch in plan.fetches:
        relation = execution.local.get(id(fetch))
        if relation is None:
            continue  # not materialized (e.g. a fetch under a bind join's probe)
        actual = float(len(relation))
        estimated = max(float(fetch.est_rows), 1.0)
        ratio = max(actual, 1.0) / estimated
        if ratio < 1.0:
            ratio = 1.0 / ratio
        actuals[id(fetch)] = actual
        corrections.append((fetch.source.name, fetch.est_rows, actual))
        worst = max(worst, ratio)
    if not actuals or worst < threshold:
        return None

    cost_model = ActualsCostModel(planner.catalog, actuals)
    dp_limit = getattr(planner, "join_dp_limit", None) or DP_LIMIT
    with cost_model.memo_scope(execution.values):
        new_root = reorder_joins(plan.root, cost_model, dp_limit=dp_limit)
        new_root, converted = _reconsider_bind_joins(
            new_root, cost_model, planner.max_bind_keys
        )
    if converted == 0 and new_root.pretty() == plan.root.pretty():
        return None  # the actuals agree with the shape we already have
    return ReplanReport(new_root, worst, threshold, corrections, converted)


def _reconsider_bind_joins(root, cost_model, max_bind_keys: int):
    """Convert bind joins whose driving side outgrew key shipping.

    A bind join chosen for *optimization* (not a binding-pattern access
    path) with more actual driver rows than `max_bind_keys` would ship its
    keys in many IN-list chunks; fetching the probed template once and hash
    joining locally is the plan the planner would have chosen with correct
    estimates. Required bind joins are untouchable — key-driven lookup is
    their only access path.
    """
    converted = 0

    def rebuild(node):
        nonlocal converted
        children = [rebuild(child) for child in node.children]
        if children:
            node = node.with_children(children)
        if (
            isinstance(node, LogicalBindJoin)
            and not getattr(node, "required", False)
            and cost_model.estimate(node.left).rows > max_bind_keys
        ):
            fetch = LogicalFetch(
                node.template,
                node.source,
                node.fetch_schema,
                est_rows=node.est_rows,
                est=node.est,
                depends_on=node.depends_on,
                tables=node.tables,
            )
            conjuncts = [BinaryOp("=", node.left_key, node.right_key)]
            conjuncts.extend(split_conjuncts(node.residual))
            converted += 1
            return LogicalJoin(node.left, fetch, node.kind, conjoin(conjuncts))
        return node

    return rebuild(root), converted
