"""Cardinality estimation and the cost model.

The estimator walks a logical plan bottom-up, carrying per-column statistics
keyed by `(qualifier, name)` so that filter and join selectivities can use
real distinct counts and histograms collected by the storage layer. The
cost unit is "one row touched"; operators add their classical multipliers.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.engine.logical import (
    LogicalAggregate,
    LogicalAlias,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalUnion,
)
from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    LiteralValues,
    Param,
    UnaryOp,
)
from repro.sql.exprutil import column_vs_literal, equi_join_sides, split_conjuncts
from repro.sql.shape import lift
from repro.storage.stats import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_LIKE_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    ColumnStats,
    TableStats,
)

DEFAULT_NDV = 10.0


@dataclass
class PlanCost:
    """Estimated output rows and cumulative cost of a (sub)plan."""

    rows: float
    cost: float
    column_stats: dict = field(default_factory=dict)  # (qual?, name) lower -> ColumnStats

    def stat_for(self, ref: ColumnRef) -> Optional[ColumnStats]:
        key = ((ref.qualifier or "").lower(), ref.name.lower())
        direct = self.column_stats.get(key)
        if direct is not None:
            return direct
        if ref.qualifier is None:
            # Fall back to a unique unqualified match.
            matches = [
                stats
                for (_, name), stats in self.column_stats.items()
                if name == ref.name.lower()
            ]
            if len(matches) == 1:
                return matches[0]
        return None


class CostModel:
    """Estimate cardinalities and costs given a statistics provider.

    `stats_provider` is duck-typed: anything with
    `table_stats(table_name) -> TableStats`. When statistics are missing the
    model degrades to textbook default selectivities.
    """

    SORT_FACTOR = 0.2
    HASH_BUILD_FACTOR = 1.5
    AGG_FACTOR = 1.2

    def __init__(self, stats_provider=None):
        self.stats_provider = stats_provider
        #: While the thread is inside a `memo_scope`, its pass: `.memo`, id(plan)
        #: -> (plan, PlanCost) - holding the plan keeps it alive, so a recycled
        #: id cannot alias a discarded candidate's entry - and `.values`, what
        #: the `Param`s estimated stand for. Each thread's own: a model is
        #: shared (an engine's planner, a source's `LocalEngine`), and one
        #: thread's pass must not serve another estimates made under other
        #: statistics, calibrations or values.
        self._scope = threading.local()

    # -- public ------------------------------------------------------------------

    def estimate(self, plan: LogicalPlan) -> PlanCost:
        memo = getattr(self._scope, "memo", None)
        if memo is not None:
            cached = memo.get(id(plan))
            if cached is not None and cached[0] is plan:
                return cached[1]
        result = self._estimate_node(plan)
        if memo is not None:
            memo[id(plan)] = (plan, result)
        return result

    @contextmanager
    def memo_scope(self, values: Optional[tuple] = None):
        """One estimation pass: node estimates memoized, each `Param` the
        constant it stands for in `values`.

        Join-order search estimates shared subtrees once per *candidate*
        containing them — exponentially often on larger join sets. Scoping
        the memo to a pass (rather than caching forever) keeps estimates
        correct across statistics changes. Re-entrant: a scope given no
        values, or the pass's own, joins the enclosing pass; one given other
        values opens its own, so no estimate is served under values it was
        not made with. The pass is the calling thread's alone.
        """
        scope = self._scope
        memo, known = getattr(scope, "memo", None), getattr(scope, "values", ())
        if memo is not None and (values is None or values is known):
            yield self
            return
        scope.memo, scope.values = {}, () if values is None else values
        try:
            yield self
        finally:
            scope.memo, scope.values = memo, known

    @property
    def values(self) -> tuple:
        """What the `Param`s of this thread's pass stand for (`memo_scope`)."""
        return getattr(self._scope, "values", ())

    def _estimate_node(self, plan: LogicalPlan) -> PlanCost:
        if isinstance(plan, LogicalScan):
            return self._scan(plan)
        if isinstance(plan, LogicalFilter):
            return self._filter(plan)
        if isinstance(plan, LogicalProject):
            child = self.estimate(plan.child)
            # Projection renames columns; remap stats for bare column items.
            out_stats = {}
            for item, column in zip(plan.items, plan.schema):
                if isinstance(item.expr, ColumnRef):
                    stat = child.stat_for(item.expr)
                    if stat is not None:
                        out_stats[
                            ((column.qualifier or "").lower(), column.name.lower())
                        ] = stat
            return PlanCost(child.rows, child.cost + child.rows * 0.1, out_stats)
        if isinstance(plan, LogicalJoin):
            return self._join(plan)
        if isinstance(plan, LogicalAggregate):
            return self._aggregate(plan)
        if isinstance(plan, LogicalSort):
            child = self.estimate(plan.child)
            extra = child.rows * math.log2(child.rows + 2) * self.SORT_FACTOR
            return PlanCost(child.rows, child.cost + extra, child.column_stats)
        if isinstance(plan, LogicalLimit):
            child = self.estimate(plan.child)
            return PlanCost(
                min(child.rows, plan.limit), child.cost, child.column_stats
            )
        if isinstance(plan, LogicalDistinct):
            child = self.estimate(plan.child)
            rows = self._distinct_rows(plan, child)
            return PlanCost(rows, child.cost + child.rows, child.column_stats)
        if isinstance(plan, LogicalAlias):
            child = self.estimate(plan.child)
            remapped = {
                (plan.binding.lower(), name): stat
                for (_, name), stat in child.column_stats.items()
            }
            return PlanCost(child.rows, child.cost, remapped)
        if isinstance(plan, LogicalUnion):
            parts = [self.estimate(child) for child in plan.inputs]
            return PlanCost(
                sum(part.rows for part in parts),
                sum(part.cost for part in parts),
                parts[0].column_stats if parts else {},
            )
        # Unknown nodes (e.g. federation extensions estimate themselves).
        estimator = getattr(plan, "estimate_cost", None)
        if estimator is not None:
            return estimator(self)
        children = [self.estimate(child) for child in plan.children]
        rows = max((part.rows for part in children), default=1.0)
        cost = sum(part.cost for part in children) + rows
        return PlanCost(rows, cost)

    def selectivity(self, expr: Expr, context: PlanCost) -> float:
        """Estimated selectivity of one predicate conjunct."""
        if isinstance(expr, Literal):
            if expr.value is True:
                return 1.0
            return 0.0 if expr.value in (False, None) else 1.0
        if isinstance(expr, BinaryOp):
            if expr.op == "AND":
                return self.selectivity(expr.left, context) * self.selectivity(
                    expr.right, context
                )
            if expr.op == "OR":
                left = self.selectivity(expr.left, context)
                right = self.selectivity(expr.right, context)
                return min(left + right - left * right, 1.0)
            if expr.op in ("=", "<>", "<", "<=", ">", ">="):
                return self._comparison_selectivity(expr, context)
        if isinstance(expr, UnaryOp) and expr.op == "NOT":
            return max(1.0 - self.selectivity(expr.operand, context), 0.0)
        if isinstance(expr, IsNull):
            stat = (
                context.stat_for(expr.operand)
                if isinstance(expr.operand, ColumnRef)
                else None
            )
            fraction = stat.null_fraction if stat is not None else 0.05
            return (1.0 - fraction) if expr.negated else fraction
        if isinstance(expr, InList):
            base = self._eq_selectivity_of(expr.operand, None, context)
            items = expr.items
            if items.__class__ is Param:  # a prepared bind join's keys
                items = items.value_in(self.values)
            sel = min(base * len(items), 1.0)
            return (1.0 - sel) if expr.negated else sel
        if isinstance(expr, Like):
            sel = DEFAULT_LIKE_SELECTIVITY
            return (1.0 - sel) if expr.negated else sel
        if isinstance(expr, Between):
            sel = DEFAULT_RANGE_SELECTIVITY
            if isinstance(expr.operand, ColumnRef):
                stat = context.stat_for(expr.operand)
                if stat is not None:
                    low = _literal_value(expr.low)
                    high = _literal_value(expr.high)
                    if low is not None and high is not None:
                        sel = max(
                            stat.range_selectivity("<=", high)
                            - stat.range_selectivity("<", low),
                            0.0,
                        )
            return (1.0 - sel) if expr.negated else sel
        return DEFAULT_RANGE_SELECTIVITY

    def slot_reads(self, stmt, values: Optional[tuple] = None) -> tuple:
        """All that estimating reads of the *values* of `stmt`'s lifted constants
        (`values`, one per slot, where `stmt`'s slots hold `Param`s): per slot,
        `eq_selectivity(value)` (`_comparison_selectivity` asks it) under the
        current statistics of every table its column may belong to; of a bind
        join's keys, how many there are (`selectivity` of an IN-list). A
        column of a definition is read where it comes from (the provider's
        `base_column`); where that is not plain the read is the value itself,
        so no two constants share a plan."""
        reads: list = []
        lifted = lift(stmt)
        base_column = getattr(self.stats_provider, "base_column", None)
        for column, literal in zip(lifted.columns, lifted.values if values is None else values):
            if literal.__class__ is LiteralValues:
                reads.append(len(literal))
                continue
            qualifier = (column.qualifier or "").lower()
            for table in stmt.tables():
                if not qualifier or table.binding.lower() == qualifier:
                    base = (table.name, column.name) if base_column is None else base_column(table.name, column.name)
                    if base is None:
                        reads.append(literal.value)
                        continue
                    stats = self._table_stats(base[0])
                    stat = stats and stats.column(base[1])
                    reads.append(stat and stat.eq_selectivity(literal.value))
        return tuple(reads)

    # -- node estimators -----------------------------------------------------------

    def _scan(self, plan: LogicalScan) -> PlanCost:
        stats = self._table_stats(plan.table_name)
        if stats is None:
            return PlanCost(1000.0, 1000.0)
        column_stats = {
            (plan.binding.lower(), name): stat for name, stat in stats.columns.items()
        }
        return PlanCost(float(stats.row_count), float(stats.row_count), column_stats)

    def _filter(self, plan: LogicalFilter) -> PlanCost:
        child = self.estimate(plan.child)
        selectivity = 1.0
        for conjunct in split_conjuncts(plan.predicate):
            selectivity *= self.selectivity(conjunct, child)
        rows = max(child.rows * selectivity, 0.0)
        return PlanCost(rows, child.cost + child.rows * 0.2, _capped(child.column_stats, rows))

    def _join(self, plan: LogicalJoin) -> PlanCost:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        merged_stats = {**left.column_stats, **right.column_stats}
        combined = PlanCost(0, 0, merged_stats)
        rows = left.rows * right.rows
        if plan.condition is not None:
            for conjunct in split_conjuncts(plan.condition):
                sides = equi_join_sides(conjunct)
                if sides is not None:
                    left_ndv = self._ndv(sides[0], combined)
                    right_ndv = self._ndv(sides[1], combined)
                    rows /= max(left_ndv, right_ndv, 1.0)
                else:
                    rows *= self.selectivity(conjunct, combined)
        if plan.kind == "LEFT":
            rows = max(rows, left.rows)
        cost = (
            left.cost
            + right.cost
            + left.rows
            + right.rows * self.HASH_BUILD_FACTOR
        )
        return PlanCost(max(rows, 0.0), cost, merged_stats)

    def _aggregate(self, plan: LogicalAggregate) -> PlanCost:
        child = self.estimate(plan.child)
        if not plan.group_exprs:
            rows = 1.0
        else:
            groups = 1.0
            for expr in plan.group_exprs:
                if isinstance(expr, ColumnRef):
                    groups *= self._ndv(expr, child)
                else:
                    groups *= DEFAULT_NDV
            rows = min(groups, max(child.rows, 1.0))
        cost = child.cost + child.rows * self.AGG_FACTOR
        # Aggregate output columns: group columns inherit their source stats.
        out_stats = {}
        for expr, name in zip(plan.group_exprs, plan.group_names):
            if isinstance(expr, ColumnRef):
                stat = child.stat_for(expr)
                if stat is not None:
                    out_stats[("", name.lower())] = stat
        return PlanCost(rows, cost, out_stats)

    def _distinct_rows(self, plan: LogicalDistinct, child: PlanCost) -> float:
        """DISTINCT output: product of the output columns' NDVs, capped.

        The same independence model `_aggregate` uses for GROUP BY — a
        DISTINCT is a group-by over its whole select list. Only when *no*
        output column has statistics does the old 0.5 heuristic apply.
        """
        ceiling = max(child.rows, 1.0)
        groups = 1.0
        have_stats = False
        for column in plan.schema:
            stat = child.stat_for(ColumnRef(column.name, column.qualifier))
            if stat is None:
                continue
            have_stats = True
            groups *= max(float(stat.distinct), 1.0)
            if groups >= ceiling:
                break
        if not have_stats:
            return max(child.rows * 0.5, 1.0)
        return max(min(groups, ceiling), 1.0)

    # -- helpers --------------------------------------------------------------------

    def _table_stats(self, table_name: str) -> Optional[TableStats]:
        if self.stats_provider is None:
            return None
        getter = getattr(self.stats_provider, "table_stats", None)
        if getter is None:
            getter = self.stats_provider.stats_for
        try:
            return getter(table_name)
        except Exception:
            return None

    def _ndv(self, ref: ColumnRef, context: PlanCost) -> float:
        stat = context.stat_for(ref)
        return float(stat.distinct) if stat is not None else DEFAULT_NDV

    def _comparison_selectivity(self, expr: BinaryOp, context: PlanCost) -> float:
        """The one place planning reads a slot's value - a `Param`'s is the
        pass's (`memo_scope`) - and `slot_reads` reads the same."""
        column, op, value = column_vs_literal(expr) or (None, expr.op, None)
        if value.__class__ is Param:
            value = value.value_in(self.values).value
        if column is None:
            if equi_join_sides(expr) is not None:
                left_ndv = self._ndv(expr.left, context)
                right_ndv = self._ndv(expr.right, context)
                return 1.0 / max(left_ndv, right_ndv, 1.0)
            return DEFAULT_RANGE_SELECTIVITY
        stat = context.stat_for(column)
        if op == "=":
            if stat is not None:
                return stat.eq_selectivity(value)
            return DEFAULT_EQ_SELECTIVITY
        if op == "<>":
            base = stat.eq_selectivity(value) if stat is not None else DEFAULT_EQ_SELECTIVITY
            return max(1.0 - base, 0.0)
        if stat is not None and value is not None:
            return stat.range_selectivity(op, value)
        return DEFAULT_RANGE_SELECTIVITY

    def _eq_selectivity_of(self, operand: Expr, value, context: PlanCost) -> float:
        if isinstance(operand, ColumnRef):
            stat = context.stat_for(operand)
            if stat is not None:
                return stat.eq_selectivity(value)
        return DEFAULT_EQ_SELECTIVITY


def _capped(column_stats: dict, rows: float) -> dict:
    """`column_stats` of a subtree cut to `rows`: no column holds more
    distinct values than there are rows."""
    ceiling = max(int(rows), 1)
    return {
        key: replace(stat, distinct=ceiling) if stat.distinct > ceiling else stat
        for key, stat in column_stats.items()
    }


def _literal_value(expr: Expr):
    return expr.value if isinstance(expr, Literal) else None
