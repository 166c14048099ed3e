"""The local engine: parse → bind → optimize → lower → execute.

`LocalEngine` is the per-source query processor. Every `RelationalSource` in
the federation runs one, which is how the system realizes the panel's advice
(Bitton, §3) to push component queries down to "mature database servers"
rather than re-implementing their work at the mediator.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from repro.common.errors import PlanError
from repro.common.relation import Relation
from repro.common.schema import RelSchema
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
from repro.engine.rewrite import eager_aggregate, optimize_logical
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
from repro.sql.exprutil import column_vs_literal, conjoin, contains_aggregate, equi_join_sides, split_conjuncts
from repro.sql.parser import parse
from repro.sql.shape import Bound, resolved


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

    def logical_plan(self, query: Union[str, Select, Bound, LogicalPlan]) -> LogicalPlan:
        """The optimized plan of `query`; a `Bound` statement's is its constants'."""
        text = query if isinstance(query, str) else None
        if isinstance(query, Bound):
            query = resolved(query.stmt, query.values)
        if isinstance(query, str):
            statement = parse(query)
            if not isinstance(statement, (Select, UnionSelect)):
                raise PlanError("query() only runs SELECT; use execute() for DML")
            query = statement
        regroups = not isinstance(query, (Select, UnionSelect)) or _groups_a_join(query)
        if isinstance(query, (Select, UnionSelect)):
            if self.validate:
                query, diagnostics = bind(query, self.resolver, text)
                _refuse(diagnostics)
            else:
                query = bind_select(query, self.resolver)
        if self.optimize:
            query = optimize_logical(query, self.cost_model)
            if regroups:
                query = eager_aggregate(query, self.cost_model)
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
        The answer's rows are built here, at the root: the plain-column
        picks below it were read through (see `_lower`).
        """
        op, pick = self._lower(plan, context)
        return _built(op, pick, plan.schema)

    def _lower(self, plan: LogicalPlan, context) -> tuple:
        """``(op, pick)``: `plan`'s rows are `op`'s when `pick` is None, else
        the columns of `op`'s rows at `pick.positions`.

        A plain-column `Project` builds no operator: it becomes (or narrows)
        the pick, and the consumer above reads `op`'s rows through it
        (`_Through`). Filter, sort and limit pass a pick up; an aggregate or
        a join ends it; a union, a DISTINCT, an extension node's input and
        the root build it (`_built`).
        """
        if isinstance(plan, LogicalScan):
            return SeqScan(self.db.table(plan.table_name), plan.binding), None

        if isinstance(plan, LogicalFilter):
            return self._lower_filter(plan, context)

        if isinstance(plan, LogicalProject):
            child, pick = self._lower(plan.child, context)
            view = _view(pick, plan.child.schema)
            exprs = [item.expr for item in plan.items]
            description = ", ".join(str(item) for item in plan.items)
            if not all(isinstance(expr, ColumnRef) for expr in exprs):
                to_tuples = eval_columns([compile_expr(expr, view) for expr in exprs])
                return ProjectOp(child, to_tuples, plan.schema, description), None
            pick = _Pick(tuple(view.index_of(expr.name, expr.qualifier) for expr in exprs), description)
            if _relabels(child, pick):  # settled where it stands: the tree keeps its shape
                return RelabelOp(child, plan.schema, f"Project({description})"), None
            return child, pick

        if isinstance(plan, LogicalJoin):
            return self._lower_join(plan, context)

        if isinstance(plan, LogicalAggregate):
            child, pick = self._lower(plan.child, context)
            view = _view(pick, plan.child.schema)
            keys = plan.group_exprs
            group_keys = None  # a global aggregate
            if len(keys) == 1 and isinstance(keys[0], ColumnRef):
                group_keys = _value_reader(keys[0], view)  # its position
            elif keys:
                group_keys = _tuple_kernel(keys, view)
            agg_specs = []
            for call in plan.aggregates:
                if len(call.args) != 1:
                    raise PlanError(f"aggregate {call.name} takes exactly one argument")
                (arg,) = call.args
                reader = None if isinstance(arg, Star) else _value_reader(arg, view)
                agg_specs.append((call.name, call.distinct, reader))
            return HashAggregateOp(child, group_keys, agg_specs, plan.schema, plan.label()), None

        if isinstance(plan, LogicalSort):
            child, pick = self._lower(plan.child, context)
            view = _view(pick, plan.child.schema)
            key_fns = [compile_expr(item.expr, view) for item in plan.order_items]
            ascendings = [item.ascending for item in plan.order_items]
            description = ", ".join(str(item) for item in plan.order_items)
            return SortOp(child, key_fns, ascendings, description), pick

        if isinstance(plan, LogicalLimit):
            child, pick = self._lower(plan.child, context)
            return LimitOp(child, plan.limit), pick

        if isinstance(plan, LogicalDistinct):
            return DistinctOp(self.lower(plan.child, context)), None

        if isinstance(plan, LogicalUnion):
            return UnionAllOp([self.lower(child, context) for child in plan.inputs]), None

        if isinstance(plan, LogicalAlias):
            child, pick = self._lower(plan.child, context)
            if pick is not None:  # renamed by the schema the pick is read under
                return child, pick
            return RelabelOp(child, plan.schema, plan.label()), None

        # Extension nodes (federation) lower themselves.
        lowerer = getattr(plan, "lower_physical", None)
        if lowerer is not None:
            return lowerer(self, context), None
        raise PlanError(f"cannot lower {type(plan).__name__}")

    def _lower_filter(self, plan: LogicalFilter, context) -> tuple:
        """Lower Filter(Scan) through an index when one matches a conjunct."""
        predicate = plan.predicate
        conjuncts = split_conjuncts(predicate)
        chosen = None
        if isinstance(plan.child, LogicalScan):
            table = self.db.table(plan.child.table_name)
            chosen = self._choose_index_access(table, plan.child.binding, conjuncts)
        if chosen is None:
            child, pick = self._lower(plan.child, context)
        else:
            (child, conjuncts), pick = chosen, None
            if not conjuncts:
                return child, None
            predicate = conjoin(conjuncts)
        view = _view(pick, plan.child.schema)
        passes = compile_filter_passes(conjuncts, view)
        return FilterOp(child, Lowered(predicate, view), passes=passes), pick

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
                return IndexEqScan(table, binding, column, value), remaining
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

    def _lower_join(self, plan: LogicalJoin, context) -> tuple:
        """A join reads both inputs through their picks and emits `row +
        other` of the rows it was handed; its pick, when an input had one,
        is where the join's columns sit in those. A pick that is built over
        it is the join's to emit (`_built`): it gathers those columns alone."""
        left, left_pick = self._lower(plan.left, context)
        right, right_pick = self._lower(plan.right, context)
        left_view, right_view = _view(left_pick, plan.left.schema), _view(right_pick, plan.right.schema)
        view, pick = plan.schema, None
        if left_pick is not None or right_pick is not None:
            width = len(left.schema)
            lefts = range(width) if left_pick is None else left_pick.positions
            rights = range(len(right.schema)) if right_pick is None else right_pick.positions
            positions = (*lefts, *[width + position for position in rights])
            view = _Through(plan.schema, positions)
            pick = _Pick(positions, ", ".join(plan.schema.qualified_names))
        if plan.condition is None:
            return NestedLoopJoinOp(left, right, None, plan.kind, "cross"), pick

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
                        left_positions.append(left_view.index_of(first.name, first.qualifier))
                        right_positions.append(right_view.index_of(second.name, second.qualifier))
                        placed = True
                        break
            if not placed:
                residual.append(conjunct)

        if left_positions:
            residual_fn = Lowered(conjoin(residual), view) if residual else None
            condition = Lowered(plan.condition, plan.schema)  # printed, never run
            return HashJoinOp(
                left, right, left_positions, right_positions, plan.kind, residual_fn, condition
            ), pick
        return NestedLoopJoinOp(left, right, Lowered(plan.condition, view), plan.kind), pick


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


class _Pick(NamedTuple):
    """Where a plain-column `Project`'s columns sit in the rows of the
    operator below it; built only where rows leave a tree (`_built`)."""

    positions: tuple
    label: str  # the `Project`'s items, as EXPLAIN shows them once built


class _Through:
    """A node's columns read through a pick: a name resolves against the
    node's own `schema`, never against the wider rows' (a fused join of two
    scans holds `o.id` and `p.id` side by side), and its position is then
    carried through `positions`. The expression compilers need only
    `index_of`, so a kernel compiled against this reads the wider rows."""

    __slots__ = ("schema", "positions")

    def __init__(self, schema: RelSchema, positions: tuple):
        self.schema = schema
        self.positions = positions

    def index_of(self, name: str, qualifier=None) -> int:
        return self.positions[self.schema.index_of(name, qualifier)]


def _view(pick, schema: RelSchema):
    """What a consumer compiles against to read the node of `schema`
    through `pick` (None: the node's rows are the operator's)."""
    return schema if pick is None else _Through(schema, pick.positions)


def _relabels(op: PhysicalOp, pick) -> bool:
    """Whether `pick` keeps every column of a list `op` built, so building
    it is a relabel: never over a scan's, a fetch's or a `ValuesOp`'s list,
    which belongs to someone else."""
    return op.fresh and pick.positions == tuple(range(len(op.schema)))


def _built(op: PhysicalOp, pick, schema: RelSchema) -> PhysicalOp:
    """The node of `schema`, lowered to ``(op, pick)``, as an operator whose
    rows are its own: a relabel (`_relabels`); a join emitting only the
    picked columns (`HashJoinOp.emitting`), relabelled so that EXPLAIN
    still shows the `Project`; else a `ProjectOp` building them."""
    if pick is None:
        return op
    positions, label = pick
    if _relabels(op, pick):
        return RelabelOp(op, schema, f"Project({label})")
    emitting = getattr(op, "emitting", None)
    if emitting is not None:
        return RelabelOp(emitting(positions, schema), schema, f"Project({label})")
    return ProjectOp(op, pick_columns(positions), schema, label)


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


def _groups_a_join(stmt: Union[Select, UnionSelect]) -> bool:
    """Whether `stmt` aggregates over a join, the one shape eager aggregation
    rewrites: its FROM names tables only, so it joins iff it names two."""
    if isinstance(stmt, UnionSelect):
        return any(map(_groups_a_join, stmt.selects))
    if len(stmt.tables()) < 2:
        return False
    exprs = [item.expr for item in stmt.items] + [order.expr for order in stmt.order_by]
    return bool(stmt.group_by) or stmt.having is not None or any(map(contains_aggregate, exprs))


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
