"""Binder: the one pass that binds, types and diagnoses a SELECT or UNION.

A `Binder` resolves table names through a `TableResolver` (duck-typed:
anything with `resolve_table(name) -> RelSchema` of unqualified columns; a
`repro.storage.Database` is adapted below, and the federation catalog is
one), types every expression, and records each defect as an EII1xx
`Diagnostic` - with a span when it has the statement's text - instead of
stopping at the first. Under an unknown table it checks nothing more: what
follows would only cascade. The pass has three readers:

- `bind_select` raises the first error as the `EIIError` its code maps to
  (`repro.common.diagnostics.RAISES`), carrying the code;
- `LocalEngine` strict mode raises `AnalysisError` with the whole list;
- `repro.analysis.analyze_statement` returns it, and types DML with
  `Binder.type_of`.

One rule separates errors from warnings (DESIGN.md "Binder"): an expression
the evaluator would refuse, or answer unlike SQL on every non-NULL row, is an
error (EII104); `=`, `<>` and IN across incomparable types answer no row, as
SQL does, and are only warned about.
"""

from __future__ import annotations

from typing import Optional, Sequence, TypeGuard

from repro.common.diagnostics import RAISES, Diagnostic, Severity, error, span_of, warning
from repro.common.errors import EIIError, SchemaError
from repro.common.schema import RelSchema
from repro.common.types import PYTHON_TYPES, DataType, infer_type
from repro.engine.logical import (
    LogicalAggregate,
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
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    OrderItem,
    Param,
    Select,
    SelectItem,
    Star,
    UnaryOp,
    UnionSelect,
)
from repro.sql.exprutil import column_refs, contains_aggregate, transform, walk
from repro.sql.functions import SCALAR_FUNCTIONS, is_aggregate_name
from repro.sql.printer import expr_to_sql

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
#: the type of a `Param` of each class a lifted constant may have
_PARAM_TYPES = {py_type: data_type for data_type, py_type in PYTHON_TYPES.items()}
_ARITHMETIC = ("+", "-", "*", "/", "%")
_NUMERIC = (DataType.INT, DataType.FLOAT)
_TYPES_HINT = "check column types with \\tables or the catalog schema"

#: Return types of scalar functions the typer knows; absent = unknown.
_SCALAR_RETURNS = {
    "LENGTH": DataType.INT,
    "YEAR": DataType.INT,
    "MONTH": DataType.INT,
    "DAY": DataType.INT,
    "FLOOR": DataType.INT,
    "CEIL": DataType.INT,
    "SIGN": DataType.INT,
    "UPPER": DataType.STRING,
    "LOWER": DataType.STRING,
    "TRIM": DataType.STRING,
    "SUBSTR": DataType.STRING,
    "SUBSTRING": DataType.STRING,
    "CONCAT": DataType.STRING,
    "REPLACE": DataType.STRING,
    "SQRT": DataType.FLOAT,
    "POWER": DataType.FLOAT,
}

#: What a scalar function's arguments must be: the types, their name, and
#: how many leading arguments are checked (None: all of them).
_ARGUMENTS: dict[str, tuple[tuple[DataType, ...], str, Optional[int]]] = {
    **dict.fromkeys(
        ("UPPER", "LOWER", "TRIM", "LENGTH", "SUBSTR", "SUBSTRING", "REPLACE"),
        ((DataType.STRING,), "string", 1),
    ),
    **dict.fromkeys(
        ("ABS", "ROUND", "FLOOR", "CEIL", "SQRT", "SIGN", "MOD", "POWER"),
        (_NUMERIC, "a number", None),
    ),
    **dict.fromkeys(("YEAR", "MONTH", "DAY"), ((DataType.DATE,), "a date", 1)),
}


class DatabaseResolver:
    """Adapt a `repro.storage.Database` to the TableResolver protocol."""

    def __init__(self, db):
        self.db = db

    def resolve_table(self, name: str) -> RelSchema:
        return self.db.table(name).schema


def bind(stmt, resolver, text: Optional[str] = None) -> tuple[Optional[LogicalPlan], list[Diagnostic]]:
    """``(plan, diagnostics)`` of a Select or UnionSelect: the unoptimized
    logical plan, or None when a diagnostic is an error."""
    binder = Binder(resolver, text)
    plan = binder.statement(stmt)
    return (None if binder.failed() else plan), binder.diagnostics


def bind_select(stmt, resolver) -> LogicalPlan:
    """The unoptimized logical plan of a Select or UnionSelect; raises its
    first error as the `EIIError` of its code (`RAISES`)."""
    binder = Binder(resolver)
    plan = binder.statement(stmt)
    if plan is not None and not binder.failed():
        return plan
    first = next(found for found in binder.diagnostics if found.severity is Severity.ERROR)
    exc = binder.causes.get(first)
    if exc is None:
        exc = RAISES[first.code](first.message if first.hint is None else f"{first.message}; {first.hint}")
    exc.code = first.code
    raise exc


class Binder:
    """One statement's bind: its plan, its types and every defect found."""

    def __init__(self, resolver, text: Optional[str] = None):
        self.resolver = resolver
        self.text = text
        self.diagnostics: list[Diagnostic] = []
        #: what the resolver raised for an unknown table's EII101
        self.causes: dict[Diagnostic, EIIError] = {}

    def failed(self) -> bool:
        return any(found.severity is Severity.ERROR for found in self.diagnostics)

    def flag(
        self, code: str, message: str, hint: str, at: Optional[str] = None,
        warn: bool = False, occurrence: int = 1,
    ) -> Diagnostic:
        """Record a finding, once; `at` is the token its span points at."""
        found = (warning if warn else error)(
            code, message, span=span_of(self.text, at or "", occurrence), hint=hint
        )
        if found not in self.diagnostics:
            self.diagnostics.append(found)
        return found

    def statement(self, stmt) -> Optional[LogicalPlan]:
        """The plan of a Select or UnionSelect; None where a table is unknown."""
        if isinstance(stmt, UnionSelect):
            return self._union(stmt)
        return self.select(stmt)

    def resolve(self, name: str) -> Optional[RelSchema]:
        """The schema of table `name`, or None (flagged EII101)."""
        try:
            return self.resolver.resolve_table(name)
        except EIIError as exc:
            self.causes[self.flag("EII101", f"unknown table {name!r}", str(exc), name)] = exc
            return None

    # -- statements -------------------------------------------------------------

    def _union(self, stmt: UnionSelect) -> Optional[LogicalPlan]:
        children = [self.select(select) for select in stmt.selects]
        if any(child is None for child in children):
            return None
        inputs = [child for child in children if child is not None]
        widths = sorted({len(child.schema) for child in inputs})
        if len(widths) > 1:
            self.flag(
                "EII109", f"UNION branches have differing widths: {widths}",
                "every branch must project the same number of columns", "UNION",
            )
            return None
        plan: LogicalPlan = LogicalUnion(inputs)
        if not stmt.all:
            plan = LogicalDistinct(plan)
        if stmt.order_by:
            for item in stmt.order_by:
                if not _within(item.expr, plan.schema):
                    self._unsortable(
                        item.expr, "it is not in the union's first branch",
                        "order a union by the columns its first branch selects",
                    )
            plan = LogicalSort(plan, stmt.order_by)
        if stmt.limit is not None:
            plan = LogicalLimit(plan, stmt.limit)
        return plan

    def select(self, stmt: Select) -> Optional[LogicalPlan]:
        plan = self._from(stmt)
        if plan is None:
            return None  # an unknown table: what follows would only cascade
        scope = plan.schema
        if stmt.where is not None:
            self.condition(stmt.where, scope, "WHERE")
            plan = LogicalFilter(plan, stmt.where)
        items = self._expand_stars(stmt.items, scope)
        computed = [item.expr for item in items] + [order.expr for order in stmt.order_by]
        if stmt.having is not None:
            computed.append(stmt.having)
        if stmt.group_by or any(map(contains_aggregate, computed)):
            plan, items, keys = self._aggregate(stmt, plan, items)
        else:
            for item in items:
                self.type_of(item.expr, scope, "SELECT")
            if stmt.having is not None:
                self.flag(
                    "EII111", "HAVING requires GROUP BY or aggregates",
                    "use WHERE for row-level filters", "HAVING",
                )
                self.condition(_unalias(stmt.having, items, scope), scope, "HAVING")
            orders = [_output_named(order.expr, items, scope) for order in stmt.order_by]
            keys = [(expr, _unalias(expr, items)) for expr in orders]
            for _, resolved in keys:
                self.type_of(resolved, scope, "ORDER BY")
        return self._project(stmt, plan, items, keys)

    # -- FROM clause -------------------------------------------------------------

    def _from(self, stmt: Select) -> Optional[LogicalPlan]:
        tables = stmt.tables()
        if not tables:
            self.flag("EII114", "SELECT without FROM is not supported", "name a table in FROM")
            return None
        seen: set[str] = set()
        scans = []
        for ref in tables:
            if ref.binding.lower() in seen:
                self.flag(
                    "EII108", f"duplicate table binding {ref.binding!r}",
                    "alias one of the occurrences (e.g. AS t2)", ref.binding, occurrence=2,
                )
            seen.add(ref.binding.lower())
            schema = self.resolve(ref.name)
            if schema is not None:
                scans.append(LogicalScan(ref.name, ref.binding, schema))
        if len(scans) < len(tables):
            return None
        listed = len(stmt.from_tables)
        plan: LogicalPlan = scans[0]
        for scan in scans[1:listed]:
            plan = LogicalJoin(plan, scan, "INNER", None)
        for join, scan in zip(stmt.joins, scans[listed:]):
            if join.condition is not None:
                self.condition(join.condition, plan.schema.concat(scan.schema), "ON")
            plan = LogicalJoin(plan, scan, join.kind, join.condition)
        return plan

    # -- select list ---------------------------------------------------------------

    def _expand_stars(self, items: Sequence[SelectItem], schema: RelSchema) -> list[SelectItem]:
        out: list[SelectItem] = []
        for item in items:
            if not isinstance(item.expr, Star):
                out.append(item)
                continue
            qualifier = item.expr.qualifier
            matched = [
                column
                for column in schema
                if qualifier is None or (column.qualifier or "").lower() == qualifier.lower()
            ]
            if not matched:
                self.flag(
                    "EII102", f"no columns match {item.expr}",
                    f"available: {', '.join(schema.qualified_names)}", qualifier,
                )
            out.extend(SelectItem(ColumnRef(column.name, column.qualifier)) for column in matched)
        return out

    # -- aggregation -------------------------------------------------------------

    def _aggregate(self, stmt: Select, plan: LogicalPlan, items: list[SelectItem]):
        """``(plan, items, keys)`` of a grouped query: the Aggregate (under its
        HAVING filter), the select list and ORDER BY keys over its output."""
        scope = plan.schema
        for expr in stmt.group_by:
            self._no_aggregate(expr, "GROUP BY")
            self.type_of(expr, scope, "GROUP BY")
        for item in items:
            self.type_of(item.expr, scope, "SELECT")
        having = None if stmt.having is None else _unalias(stmt.having, items, scope)
        if having is not None:
            self.condition(having, scope, "HAVING")
        resolved = [_unalias(order.expr, items) for order in stmt.order_by]
        for expr in resolved:
            self.type_of(expr, scope, "ORDER BY")

        computed = [item.expr for item in items] + ([] if having is None else [having]) + resolved
        aggregates = list(dict.fromkeys(
            node
            for expr in computed
            for node in walk(expr)
            if isinstance(node, FuncCall) and is_aggregate_name(node.name)
        ))
        group_names = self._group_names(stmt.group_by)
        agg_names = [f"_a{i}" for i in range(len(aggregates))]
        aggregate = LogicalAggregate(plan, stmt.group_by, group_names, aggregates, agg_names)

        # post-aggregation expressions read the aggregate's outputs
        mapping: dict[Expr, Expr] = dict(zip(stmt.group_by, map(ColumnRef, group_names)))
        mapping.update(zip(aggregates, map(ColumnRef, agg_names)))

        def rewrite(expr: Expr) -> Expr:
            return transform(expr, mapping.get)

        items = [SelectItem(rewrite(item.expr), item.alias) for item in items]
        keys = [(rewrite(order.expr), rewrite(expr)) for order, expr in zip(stmt.order_by, resolved)]
        result: LogicalPlan = aggregate
        if having is not None:
            having = rewrite(having)
            result = LogicalFilter(aggregate, having)
        for expr in [item.expr for item in items] + ([] if having is None else [having]):
            self._grouped(expr, aggregate.schema, scope)
        for _, expr in keys:
            self._grouped(expr, aggregate.schema, scope)
        return result, items, keys

    def _group_names(self, group_exprs) -> list[str]:
        names: list[str] = []
        for i, expr in enumerate(group_exprs):
            if isinstance(expr, ColumnRef):
                candidate = expr.name
                if any(existing.lower() == candidate.lower() for existing in names):
                    candidate = f"{expr.qualifier}_{expr.name}" if expr.qualifier else f"_g{i}"
                names.append(candidate)
            else:
                names.append(f"_g{i}")
        return names

    def _grouped(self, expr: Expr, output: RelSchema, scope: RelSchema) -> None:
        """Flag each input column `expr` reads that is neither grouped nor aggregated."""
        for ref in column_refs(expr):
            if not output.has(ref.name, ref.qualifier) and scope.has(ref.name, ref.qualifier):
                self.flag(
                    "EII106", f"column {ref} must appear in GROUP BY or inside an aggregate",
                    f"add {ref} to GROUP BY or wrap it in MIN()/MAX()", ref.name,
                )

    # -- projection and ORDER BY --------------------------------------------------

    def _project(self, stmt: Select, plan: LogicalPlan, items: list[SelectItem], keys) -> LogicalPlan:
        """Project, Distinct, Sort, Limit. An ORDER BY term may name an output
        alias, a select expression or a column that survives projection;
        any other is sorted on as a hidden column, trimmed off on top."""
        project = LogicalProject(plan, items)
        output = project.schema
        # a term naming a select expression sorts on that output column; by
        # its bare name unless another output column shares it
        named = {}
        for item, column in zip(items, output):
            name = column.name
            named[item.expr] = ColumnRef(name) if output.has(name) else ColumnRef(name, column.qualifier)
        hidden: list[SelectItem] = []
        order: list[OrderItem] = []
        for item, (expr, resolved) in zip(stmt.order_by, keys):
            if expr in named:
                expr = named[expr]
            elif not _within(expr, output) and _within(resolved, plan.schema):
                if stmt.distinct:
                    self._unsortable(
                        item.expr, "it is not in the select list of a DISTINCT query",
                        "select it, or drop DISTINCT",
                    )
                elif len({(c.name.lower(), (c.qualifier or "").lower()) for c in output}) < len(output):
                    self._unsortable(
                        item.expr, "a hidden sort column cannot be trimmed off a select list "
                        "that repeats an output name", "alias the repeated columns apart",
                    )
                else:
                    hidden.append(SelectItem(resolved, f"_o{len(hidden)}"))
                    expr = ColumnRef(hidden[-1].output_name)
            order.append(OrderItem(expr, item.ascending))
        if hidden:
            project = LogicalProject(plan, items + hidden)
        result: LogicalPlan = LogicalDistinct(project) if stmt.distinct else project
        if order:
            result = LogicalSort(result, order)
        if stmt.limit is not None:
            result = LogicalLimit(result, stmt.limit)
        if hidden:
            result = LogicalProject(
                result, [SelectItem(ColumnRef(column.name, column.qualifier)) for column in output]
            )
        return result

    def _unsortable(self, expr: Expr, reason: str, hint: str) -> None:
        self.flag("EII113", f"cannot ORDER BY {expr_to_sql(expr)}: {reason}", hint, "ORDER")

    # -- typing ------------------------------------------------------------------

    def condition(self, expr: Expr, scope: RelSchema, context: str) -> None:
        """Type a WHERE, ON or HAVING predicate, which must be a bool."""
        if context != "HAVING":
            self._no_aggregate(expr, context)
        found = self.type_of(expr, scope, context)
        if _wrong(found, DataType.BOOL):
            self._mismatch(f"{context} condition has type {found.value}, expected bool", expr)

    def _no_aggregate(self, expr: Expr, context: str) -> None:
        if contains_aggregate(expr):
            self.flag(
                "EII105", f"aggregates are not allowed in {context}",
                "filter aggregated values with HAVING instead", context.split()[0],
            )

    def type_of(self, expr: Expr, scope: RelSchema, context: str) -> Optional[DataType]:
        """The type of `expr` over `scope` (None: unknown). On the way it flags
        unknown and ambiguous columns, mistyped operands, unknown functions
        and nested aggregates."""
        if isinstance(expr, Literal):
            try:
                return infer_type(expr.value)
            except EIIError:
                return None
        if expr.__class__ is Param:  # a slot's class is in its statement's shape
            return _PARAM_TYPES.get(expr.kind)
        if isinstance(expr, ColumnRef):
            return self._column(expr, scope, context)
        if isinstance(expr, BinaryOp):
            return self._binary(expr, scope, context)
        if isinstance(expr, UnaryOp):
            operand = self.type_of(expr.operand, scope, context)
            if expr.op == "NOT":
                if _wrong(operand, DataType.BOOL):
                    self._mismatch(f"NOT operand has type {operand.value}, expected bool", expr)
                return DataType.BOOL
            if _wrong(operand, *_NUMERIC):
                self._mismatch(f"negation of non-numeric operand ({operand.value})", expr)
            return operand
        if isinstance(expr, FuncCall):
            return self._call(expr, scope, context)
        if isinstance(expr, IsNull):
            self.type_of(expr.operand, scope, context)
            return DataType.BOOL
        if isinstance(expr, InList):
            operand = self.type_of(expr.operand, scope, context)
            # a prepared bind join's keys (a `Param`) are the join's to type
            for item in () if expr.items.__class__ is Param else expr.items:
                self._compare(operand, self.type_of(item, scope, context), expr, warn=True)
            return DataType.BOOL
        if isinstance(expr, Like):
            for side in (expr.operand, expr.pattern):
                found = self.type_of(side, scope, context)
                if _wrong(found, DataType.STRING):
                    self._mismatch(
                        f"LIKE operand {expr_to_sql(side)} has type {found.value}, expected string", side
                    )
            return DataType.BOOL
        if isinstance(expr, Between):
            operand = self.type_of(expr.operand, scope, context)
            for bound in (expr.low, expr.high):
                self._compare(operand, self.type_of(bound, scope, context), expr)
            return DataType.BOOL
        if isinstance(expr, CaseWhen):
            results: set[Optional[DataType]] = set()
            for condition, value in expr.whens:
                found = self.type_of(condition, scope, context)
                if _wrong(found, DataType.BOOL):
                    self._mismatch(f"CASE condition has type {found.value}, expected bool", condition)
                results.add(self.type_of(value, scope, context))
            if expr.default is not None:
                results.add(self.type_of(expr.default, scope, context))
            return results.pop() if len(results) == 1 else None
        return None  # a Star

    def _column(self, ref: ColumnRef, scope: RelSchema, context: str) -> Optional[DataType]:
        try:
            return scope.column(ref.name, ref.qualifier).dtype
        except SchemaError:
            pass
        if any(column.matches(ref.name, ref.qualifier) for column in scope):
            self.flag(
                "EII103", f"in {context}: ambiguous column reference {ref}",
                "qualify the column with its table binding", ref.name,
            )
        else:
            self.flag(
                "EII102", f"in {context}: unknown column {ref}",
                f"available: {', '.join(scope.qualified_names)}", ref.name,
            )
        return None

    def _binary(self, expr: BinaryOp, scope: RelSchema, context: str) -> Optional[DataType]:
        left = self.type_of(expr.left, scope, context)
        right = self.type_of(expr.right, scope, context)
        sides = ((expr.left, left), (expr.right, right))
        if expr.op in ("AND", "OR"):
            for side, found in sides:
                if _wrong(found, DataType.BOOL):
                    self._mismatch(
                        f"{expr.op} operand {expr_to_sql(side)} has type {found.value}, expected bool", side
                    )
            return DataType.BOOL
        if expr.op in _COMPARISONS:
            self._compare(left, right, expr, warn=expr.op in ("=", "<>"))
            return DataType.BOOL
        if expr.op == "||":
            return DataType.STRING  # any operands concatenate as text, in SQL too
        if expr.op in _ARITHMETIC:
            for side, found in sides:
                if _wrong(found, *_NUMERIC):
                    self._mismatch(
                        f"arithmetic on non-numeric operand {expr_to_sql(side)} ({found.value})", side
                    )
            if DataType.FLOAT in (left, right) or expr.op == "/":
                return DataType.FLOAT
            if left is DataType.INT and right is DataType.INT:
                return DataType.INT
        return None

    def _call(self, call: FuncCall, scope: RelSchema, context: str) -> Optional[DataType]:
        name = call.name.upper()
        types = [None if isinstance(arg, Star) else self.type_of(arg, scope, context) for arg in call.args]
        first = types[0] if types else None
        if is_aggregate_name(name):
            if any(map(contains_aggregate, call.args)):
                self.flag(
                    "EII110", f"nested aggregate in {expr_to_sql(call)}",
                    "compute the inner aggregate in a view first", call.name,
                )
            if name == "COUNT":
                return DataType.INT
            if name in ("SUM", "AVG") and _wrong(first, *_NUMERIC):
                self._mismatch(
                    f"{name} over non-numeric argument {expr_to_sql(call.args[0])} ({first.value})", call
                )
            return DataType.FLOAT if name == "AVG" else first
        if name not in SCALAR_FUNCTIONS:
            self.flag(
                "EII107", f"unknown function {call.name!r}",
                f"known scalars: {', '.join(sorted(SCALAR_FUNCTIONS))}", call.name,
            )
            return None
        wanted, noun, count = _ARGUMENTS.get(name, ((), "", 0))
        for arg, found in zip(call.args[:count], types):
            if wanted and _wrong(found, *wanted):
                self._mismatch(
                    f"{name} argument {expr_to_sql(arg)} has type {found.value}, expected {noun}", arg
                )
        if name in ("COALESCE", "IFNULL"):  # the first argument's where it is not NULL
            return next((found for found in types if _wrong(found)), None)
        if name in ("ABS", "ROUND", "MOD"):  # a number, as its arguments are
            return DataType.FLOAT if DataType.FLOAT in types else first
        return _SCALAR_RETURNS.get(name)

    def _compare(self, a: Optional[DataType], b: Optional[DataType], expr: Expr, warn: bool = False) -> None:
        """Flag `a` and `b` compared in `expr` when neither type holds the other."""
        if _wrong(a) and _wrong(b) and not (a.accepts(b) or b.accepts(a)):
            self._mismatch(f"cannot compare {a.value} to {b.value} in {expr_to_sql(expr)}", expr, warn)

    def _mismatch(self, message: str, expr: Expr, warn: bool = False) -> None:
        anchor = next(iter(column_refs(expr)), None)
        self.flag("EII104", message, _TYPES_HINT, anchor.name if anchor else None, warn)


def _wrong(found: Optional[DataType], *wanted: DataType) -> TypeGuard[DataType]:
    """Whether `found` is a known type and none of `wanted`."""
    return found is not None and found is not DataType.ANY and found not in wanted


def _within(expr: Expr, schema: RelSchema) -> bool:
    """Whether every column `expr` reads resolves in `schema`."""
    return all(schema.has(ref.name, ref.qualifier) for ref in column_refs(expr))


def _output_named(expr: Expr, items: Sequence[SelectItem], scope: RelSchema) -> Expr:
    """The select expression of the one output column a bare ORDER BY name
    names, where the FROM clause cannot resolve it (two tables hold it):
    ORDER BY reads the output first. Else `expr` itself."""
    if not isinstance(expr, ColumnRef) or expr.qualifier is not None or scope.has(expr.name):
        return expr
    named = [item.expr for item in items if item.output_name.lower() == expr.name.lower()]
    return named[0] if len(named) == 1 else expr


def _unalias(expr: Expr, items: Sequence[SelectItem], scope: Optional[RelSchema] = None) -> Expr:
    """`expr` with each unqualified name of a select-list alias replaced by the
    item's expression - unless `scope` holds a column of that name."""
    aliases = {item.alias.lower(): item.expr for item in items if item.alias}
    if not aliases:
        return expr

    def swap(node: Expr) -> Optional[Expr]:
        if not isinstance(node, ColumnRef) or node.qualifier is not None:
            return None
        if scope is not None and scope.has(node.name):
            return None
        return aliases.get(node.name.lower())

    return transform(expr, swap)
