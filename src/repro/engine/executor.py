"""The local engine: parse → bind → optimize → lower → execute.

`LocalEngine` is the per-source query processor. Every `RelationalSource` in
the federation runs one, which is how the system realizes the panel's advice
(Bitton, §3) to push component queries down to "mature database servers"
rather than re-implementing their work at the mediator.
"""

from __future__ import annotations

from typing import Union

from repro.common.errors import PlanError
from repro.common.relation import Relation
from repro.common.types import PYTHON_TYPES
from repro.engine.cost import CostModel
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
from repro.engine.physical import (
    DistinctOp,
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    IndexEqScan,
    IndexRangeScan,
    LimitOp,
    Lowered,
    NestedLoopJoinOp,
    PhysicalOp,
    ProjectOp,
    RelabelOp,
    SeqScan,
    SortOp,
    UnionAllOp,
    eval_columns,
    pick_columns,
)
from repro.engine.planner import DatabaseResolver, bind, bind_select
from repro.engine.rewrite import optimize_logical
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Delete,
    Expr,
    Insert,
    Literal,
    Select,
    Star,
    UnionSelect,
    Update,
)
from repro.sql.eval import compile_expr, compile_filter_passes, compile_predicate, exact_under
from repro.sql.exprutil import column_vs_literal, conjoin, equi_join_sides, split_conjuncts
from repro.sql.parser import parse


class LocalEngine:
    """Cost-based SQL engine over one `repro.storage.Database`."""

    def __init__(self, db, optimize: bool = True, validate: bool = False):
        self.db = db
        self.optimize = optimize
        #: opt-in strict mode: refuse a statement with `AnalysisError`, listing
        #: every defect its bind (for DML, the analyzer) found, instead of
        #: raising the binder's first error
        self.validate = validate
        self.resolver = DatabaseResolver(db)
        self.cost_model = CostModel(_StatsAdapter(db))

    # -- public API ---------------------------------------------------------------

    def query(self, query: Union[str, Select, LogicalPlan]) -> Relation:
        """Run a SELECT (text, AST or logical plan) and return its result."""
        return self.physical_plan(query).relation()

    def explain(self, query: Union[str, Select, LogicalPlan]) -> str:
        """EXPLAIN: the optimized logical plan and the physical operator tree."""
        logical = self.logical_plan(query)
        physical = self.lower(logical)
        estimate = self.cost_model.estimate(logical)
        header = f"estimated rows={estimate.rows:.0f} cost={estimate.cost:.0f}"
        return "\n".join([header, logical.pretty(), physical.explain()])

    def execute(self, statement: Union[str, Insert, Update, Delete]) -> int:
        """Run a DML statement, returning the affected-row count."""
        if isinstance(statement, str):
            statement = parse(statement)
        if self.validate:
            from repro.analysis.semantic import analyze_statement

            _refuse(analyze_statement(statement, self.resolver))
        if isinstance(statement, Insert):
            return self._insert(statement)
        if isinstance(statement, Update):
            return self._update(statement)
        if isinstance(statement, Delete):
            return self._delete(statement)
        raise PlanError(f"execute() cannot run {type(statement).__name__}")

    def logical_plan(self, query: Union[str, Select, LogicalPlan]) -> LogicalPlan:
        text = query if isinstance(query, str) else None
        if isinstance(query, str):
            statement = parse(query)
            if not isinstance(statement, (Select, UnionSelect)):
                raise PlanError("query() only runs SELECT; use execute() for DML")
            query = statement
        if isinstance(query, (Select, UnionSelect)):
            if self.validate:
                query, diagnostics = bind(query, self.resolver, text)
                _refuse(diagnostics)
            else:
                query = bind_select(query, self.resolver)
        if self.optimize:
            query = optimize_logical(query, self.cost_model)
        return query

    def physical_plan(self, query: Union[str, Select, LogicalPlan]) -> PhysicalOp:
        return self.lower(self.logical_plan(query))

    # -- DML ----------------------------------------------------------------------

    def _insert(self, statement: Insert) -> int:
        table = self.db.table(statement.table)
        count = 0
        for row_exprs in statement.rows:
            values = [_const(expr) for expr in row_exprs]
            if statement.columns:
                table.insert_dict(dict(zip(statement.columns, values)))
            else:
                table.insert(values)
            count += 1
        return count

    def _update(self, statement: Update) -> int:
        table = self.db.table(statement.table)
        schema = table.schema
        predicate = (
            compile_predicate(statement.where, schema)
            if statement.where is not None
            else (lambda row: True)
        )
        assignment_fns = [
            (schema.index_of(name), compile_expr(value, schema))
            for name, value in statement.assignments
        ]

        def updater(row):
            new_row = list(row)
            for position, fn in assignment_fns:
                new_row[position] = fn(row)
            return new_row

        return table.update_where(predicate, updater)

    def _delete(self, statement: Delete) -> int:
        table = self.db.table(statement.table)
        predicate = (
            compile_predicate(statement.where, table.schema)
            if statement.where is not None
            else (lambda row: True)
        )
        return table.delete_where(predicate)

    # -- lowering --------------------------------------------------------------------

    def lower(self, plan: LogicalPlan, context=None) -> PhysicalOp:
        """Lower `plan` to physical operators.

        ``context`` is handed untouched to extension nodes' `lower_physical`
        hooks: the federated engine passes the state of one execution.
        """
        if isinstance(plan, LogicalScan):
            return SeqScan(self.db.table(plan.table_name), plan.binding)

        if isinstance(plan, LogicalFilter):
            return self._lower_filter(plan, context)

        if isinstance(plan, LogicalProject):
            child = self.lower(plan.child, context)
            to_tuples = _tuple_kernel([item.expr for item in plan.items], child.schema)
            description = ", ".join(str(item) for item in plan.items)
            return ProjectOp(child, to_tuples, plan.schema, description)

        if isinstance(plan, LogicalJoin):
            return self._lower_join(plan, context)

        if isinstance(plan, LogicalAggregate):
            child = self.lower(plan.child, context)
            keys = plan.group_exprs
            group_keys = None  # a global aggregate
            if len(keys) == 1 and isinstance(keys[0], ColumnRef):
                group_keys = _value_reader(keys[0], child.schema)  # its position
            elif keys:
                group_keys = _tuple_kernel(keys, child.schema)
            agg_specs = []
            for call in plan.aggregates:
                if len(call.args) != 1:
                    raise PlanError(f"aggregate {call.name} takes exactly one argument")
                (arg,) = call.args
                reader = None if isinstance(arg, Star) else _value_reader(arg, child.schema)
                agg_specs.append((call.name, call.distinct, reader))
            return HashAggregateOp(child, group_keys, agg_specs, plan.schema, plan.label())

        if isinstance(plan, LogicalSort):
            child = self.lower(plan.child, context)
            key_fns = [
                compile_expr(item.expr, child.schema) for item in plan.order_items
            ]
            ascendings = [item.ascending for item in plan.order_items]
            description = ", ".join(str(item) for item in plan.order_items)
            return SortOp(child, key_fns, ascendings, description)

        if isinstance(plan, LogicalLimit):
            return LimitOp(self.lower(plan.child, context), plan.limit)

        if isinstance(plan, LogicalDistinct):
            return DistinctOp(self.lower(plan.child, context))

        if isinstance(plan, LogicalUnion):
            return UnionAllOp([self.lower(child, context) for child in plan.inputs])

        if isinstance(plan, LogicalAlias):
            return RelabelOp(self.lower(plan.child, context), plan.schema, plan.label())

        # Extension nodes (federation) lower themselves.
        lowerer = getattr(plan, "lower_physical", None)
        if lowerer is not None:
            return lowerer(self, context)
        raise PlanError(f"cannot lower {type(plan).__name__}")

    def _lower_filter(self, plan: LogicalFilter, context=None) -> PhysicalOp:
        """Lower Filter(Scan) through an index when one matches a conjunct."""
        predicate = plan.predicate
        conjuncts = split_conjuncts(predicate)
        chosen = None
        if isinstance(plan.child, LogicalScan):
            table = self.db.table(plan.child.table_name)
            chosen = self._choose_index_access(table, plan.child.binding, conjuncts)
        if chosen is None:
            child = self.lower(plan.child, context)
        else:
            child, conjuncts = chosen
            if not conjuncts:
                return child
            predicate = conjoin(conjuncts)
        passes = compile_filter_passes(conjuncts, child.schema)
        return FilterOp(child, Lowered(predicate, child.schema), passes=passes)

    def _choose_index_access(self, table, binding, conjuncts):
        """Pick an index-backed access path for one of the conjuncts."""
        from repro.storage.index import SortedIndex

        for i, conjunct in enumerate(conjuncts):
            comparison = column_vs_literal(conjunct)
            if comparison is None:
                continue
            ref, op, value = comparison
            if ref.qualifier is not None and ref.qualifier.lower() != binding.lower():
                continue
            column = ref.name
            index = table.index_on(column)
            if index is None or not _index_is_exact(table.schema.column(column).dtype, value):
                continue
            remaining = conjuncts[:i] + conjuncts[i + 1 :]
            if op == "=":
                literal = conjunct.left if conjunct.right is ref else conjunct.right
                return IndexEqScan(table, binding, column, value, literal), remaining
            if isinstance(index, SortedIndex) and op in ("<", "<=", ">", ">="):
                if op in ("<", "<="):
                    access = IndexRangeScan(
                        table, binding, column, high=value, include_high=op == "<="
                    )
                else:
                    access = IndexRangeScan(
                        table, binding, column, low=value, include_low=op == ">="
                    )
                return access, remaining
        return None

    def _lower_join(self, plan: LogicalJoin, context=None) -> PhysicalOp:
        left = self.lower(plan.left, context)
        right = self.lower(plan.right, context)
        if plan.condition is None:
            return NestedLoopJoinOp(left, right, None, plan.kind, "cross")
        condition = Lowered(plan.condition, plan.schema)

        left_positions: list[int] = []
        right_positions: list[int] = []
        residual: list[Expr] = []
        for conjunct in split_conjuncts(plan.condition):
            sides = equi_join_sides(conjunct)
            placed = False
            if sides is not None:
                a, b = sides
                for first, second in ((a, b), (b, a)):
                    if plan.left.schema.has(first.name, first.qualifier) and \
                            plan.right.schema.has(second.name, second.qualifier):
                        left_positions.append(
                            plan.left.schema.index_of(first.name, first.qualifier)
                        )
                        right_positions.append(
                            plan.right.schema.index_of(second.name, second.qualifier)
                        )
                        placed = True
                        break
            if not placed:
                residual.append(conjunct)

        if left_positions:
            residual_fn = Lowered(conjoin(residual), plan.schema) if residual else None
            return HashJoinOp(
                left, right, left_positions, right_positions, plan.kind, residual_fn, condition
            )
        return NestedLoopJoinOp(left, right, condition, plan.kind)


class _StatsAdapter:
    """Expose Database.stats_for under the CostModel's protocol name."""

    def __init__(self, db):
        self.db = db

    def table_stats(self, table_name: str):
        return self.db.stats_for(table_name)


def _refuse(diagnostics) -> None:
    """Strict mode: raise `AnalysisError` listing every finding, if one is an error."""
    from repro.analysis import AnalysisError, AnalysisReport  # it imports federation nodes

    report = AnalysisReport(list(diagnostics))
    if not report.ok:
        raise AnalysisError(report)


def _value_reader(expr, schema):
    """How a kernel reads `expr` off a row: the position of a plain column
    (no closure, no call per row), else the compiled `row -> value`."""
    if isinstance(expr, ColumnRef):
        return schema.index_of(expr.name, expr.qualifier)
    return compile_expr(expr, schema)


def _tuple_kernel(exprs, schema):
    """The `rows -> list[tuple]` kernel evaluating `exprs` against `schema`:
    a C-level column pick when every expression is a plain column."""
    if all(isinstance(expr, ColumnRef) for expr in exprs):
        return pick_columns([_value_reader(expr, schema) for expr in exprs])
    return eval_columns([compile_expr(expr, schema) for expr in exprs])


def _const(expr: Expr):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, BinaryOp) or isinstance(expr, ColumnRef):
        raise PlanError("INSERT values must be literals")
    raise PlanError(f"INSERT values must be literals, got {expr}")


def _index_is_exact(dtype, value) -> bool:
    """Whether an index on a `dtype` column answers `col <op> value` as the
    filter does: only for a literal the filter compares bare with what such a
    column stores (the filter passes' table). Not NULL, which an index looks
    up as a key or reads as "unbounded"; not 'x' against numbers, which an
    index cannot order and the filter reports typed; not a float against INT,
    which the filter rounds beyond 2**53; not NaN, which no bisect can place.
    """
    admits = exact_under(value)
    return admits is not None and PYTHON_TYPES.get(dtype) in admits and value == value
