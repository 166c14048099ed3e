"""SQL semantic analysis against a table resolver (EII1xx diagnostics).

Mirrors the binder's checks — unknown/ambiguous names, aggregate placement,
UNION widths — but *collects* typed diagnostics instead of raising on the
first defect, and adds an expression type checker the binder does not have.
The resolver is duck-typed: anything with `resolve_table(name) -> RelSchema`
(a `Database` adapter, a `FederationCatalog` - definitions included).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, error, span_of
from repro.common.errors import EIIError, SchemaError
from repro.common.schema import RelSchema
from repro.common.types import DataType, infer_type
from repro.sql.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Delete,
    Expr,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Like,
    Literal,
    Select,
    Star,
    UnaryOp,
    UnionSelect,
    Update,
)
from repro.sql.exprutil import column_refs, contains_aggregate, walk
from repro.sql.functions import SCALAR_FUNCTIONS, is_aggregate_name
from repro.sql.printer import expr_to_sql

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = ("+", "-", "*", "/", "%")
_NUMERIC = (DataType.INT, DataType.FLOAT)

#: Return types of scalar functions the checker knows; absent = unknown.
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

_STRING_ARG_FUNCTIONS = {"UPPER", "LOWER", "TRIM", "LENGTH", "SUBSTR", "SUBSTRING", "REPLACE"}
_NUMERIC_ARG_FUNCTIONS = {"ABS", "ROUND", "FLOOR", "CEIL", "SQRT", "SIGN", "MOD", "POWER"}
_DATE_ARG_FUNCTIONS = {"YEAR", "MONTH", "DAY"}


def analyze_statement(stmt, resolver, text: Optional[str] = None) -> List[Diagnostic]:
    """Semantic diagnostics for a parsed statement (never raises)."""
    diags: List[Diagnostic] = []
    if isinstance(stmt, UnionSelect):
        widths: List[Optional[int]] = []
        for branch in stmt.selects:
            checker = _SelectChecker(branch, resolver, text, diags)
            checker.run()
            widths.append(checker.output_width)
        known = [w for w in widths if w is not None]
        if len(known) == len(widths) and len(set(known)) > 1:
            diags.append(
                error(
                    "EII109",
                    f"UNION branches have differing widths: {sorted(set(known))}",
                    span=span_of(text, "UNION"),
                    hint="every branch must project the same number of columns",
                )
            )
    elif isinstance(stmt, Select):
        _SelectChecker(stmt, resolver, text, diags).run()
    elif isinstance(stmt, Insert):
        _check_insert(stmt, resolver, text, diags)
    elif isinstance(stmt, Update):
        _check_update(stmt, resolver, text, diags)
    elif isinstance(stmt, Delete):
        _check_delete(stmt, resolver, text, diags)
    return diags


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


class _SelectChecker:
    def __init__(self, stmt: Select, resolver, text: Optional[str], diags: List[Diagnostic]):
        self.stmt = stmt
        self.resolver = resolver
        self.text = text
        self.diags = diags
        self.schema: Optional[RelSchema] = None  # None until tables resolve
        self.output_width: Optional[int] = None

    def run(self) -> None:
        schema = self._resolve_tables()
        self._compute_width(schema)
        self._check_aggregate_placement()
        self._check_functions()
        if schema is None:
            return  # suppress column/type cascades under unknown tables
        self.schema = schema
        aliases = {
            item.alias.lower() for item in self.stmt.items if item.alias
        }
        for context, expr, allow_aliases in self._expressions():
            self._check_refs(context, expr, schema, aliases if allow_aliases else set())
        self._check_grouping(schema)
        self._type_check(schema)

    # -- tables ---------------------------------------------------------------

    def _resolve_tables(self) -> Optional[RelSchema]:
        parts: List[RelSchema] = []
        seen: dict = {}
        unknown = False
        for ref in self.stmt.tables():
            binding = ref.binding.lower()
            if binding in seen:
                self.diags.append(
                    error(
                        "EII108",
                        f"duplicate table binding {ref.binding!r}",
                        span=span_of(self.text, ref.binding, occurrence=2),
                        hint="alias one of the occurrences (e.g. AS t2)",
                    )
                )
            seen[binding] = ref
            try:
                schema = self.resolver.resolve_table(ref.name)
            except EIIError as exc:
                unknown = True
                self.diags.append(
                    error(
                        "EII101",
                        f"unknown table {ref.name!r}",
                        span=span_of(self.text, ref.name),
                        hint=str(exc),
                    )
                )
                continue
            parts.append(schema.with_qualifier(ref.binding))
        if unknown or not parts:
            return None
        combined = parts[0]
        for part in parts[1:]:
            combined = combined.concat(part)
        return combined

    def _compute_width(self, schema: Optional[RelSchema]) -> None:
        width = 0
        for item in self.stmt.items:
            if isinstance(item.expr, Star):
                if schema is None:
                    self.output_width = None
                    return
                qualifier = item.expr.qualifier
                width += sum(
                    1
                    for column in schema
                    if qualifier is None
                    or (column.qualifier or "").lower() == qualifier.lower()
                )
            else:
                width += 1
        self.output_width = width

    # -- expression inventory ---------------------------------------------------

    def _expressions(self) -> List[Tuple[str, Expr, bool]]:
        out: List[Tuple[str, Expr, bool]] = []
        for item in self.stmt.items:
            if not isinstance(item.expr, Star):
                out.append(("SELECT", item.expr, False))
        for join in self.stmt.joins:
            if join.condition is not None:
                out.append(("ON", join.condition, False))
        if self.stmt.where is not None:
            out.append(("WHERE", self.stmt.where, False))
        for expr in self.stmt.group_by:
            out.append(("GROUP BY", expr, False))
        if self.stmt.having is not None:
            out.append(("HAVING", self.stmt.having, True))
        for order in self.stmt.order_by:
            out.append(("ORDER BY", order.expr, True))
        return out

    # -- name resolution ----------------------------------------------------------

    def _check_refs(self, context: str, expr: Expr, schema: RelSchema, aliases: set) -> None:
        for ref in column_refs(expr):
            if ref.qualifier is None and ref.name.lower() in aliases:
                continue  # HAVING/ORDER BY may target select-list aliases
            matches = sum(1 for column in schema if column.matches(ref.name, ref.qualifier))
            if matches == 1:
                continue
            if matches == 0:
                self.diags.append(
                    error(
                        "EII102",
                        f"in {context}: unknown column {ref}",
                        span=span_of(self.text, ref.name),
                        hint=f"available: {', '.join(schema.qualified_names)}",
                    )
                )
            else:
                self.diags.append(
                    error(
                        "EII103",
                        f"in {context}: ambiguous column reference {ref}",
                        span=span_of(self.text, ref.name),
                        hint="qualify the column with its table binding",
                    )
                )

    # -- aggregates ---------------------------------------------------------------

    def _check_aggregate_placement(self) -> None:
        stmt = self.stmt
        if stmt.where is not None and contains_aggregate(stmt.where):
            self.diags.append(
                error(
                    "EII105",
                    "aggregates are not allowed in WHERE",
                    span=span_of(self.text, "WHERE"),
                    hint="filter aggregated values with HAVING instead",
                )
            )
        has_aggregate = False
        for _, expr, _allow in self._expressions():
            for node in walk(expr):
                if isinstance(node, FuncCall) and is_aggregate_name(node.name):
                    has_aggregate = True
                    if any(contains_aggregate(arg) for arg in node.args):
                        self.diags.append(
                            error(
                                "EII110",
                                f"nested aggregate in {expr_to_sql(node)}",
                                span=span_of(self.text, node.name),
                                hint="compute the inner aggregate in a view first",
                            )
                        )
        if stmt.having is not None and not stmt.group_by and not has_aggregate:
            self.diags.append(
                error(
                    "EII111",
                    "HAVING requires GROUP BY or aggregates",
                    span=span_of(self.text, "HAVING"),
                    hint="use WHERE for row-level filters",
                )
            )

    def _check_functions(self) -> None:
        for _, expr, _allow in self._expressions():
            for node in walk(expr):
                if isinstance(node, FuncCall):
                    name = node.name.upper()
                    if not is_aggregate_name(name) and name not in SCALAR_FUNCTIONS:
                        self.diags.append(
                            error(
                                "EII107",
                                f"unknown function {node.name!r}",
                                span=span_of(self.text, node.name),
                                hint=f"known scalars: {', '.join(sorted(SCALAR_FUNCTIONS))}",
                            )
                        )

    def _check_grouping(self, schema: RelSchema) -> None:
        if not self.stmt.group_by:
            return
        group_positions: set = set()
        group_keys: set = set()
        for expr in self.stmt.group_by:
            group_keys.add(expr_to_sql(expr).lower())
            if isinstance(expr, ColumnRef):
                try:
                    group_positions.add(schema.index_of(expr.name, expr.qualifier))
                except SchemaError:
                    pass

        def offenders(expr: Expr) -> List[ColumnRef]:
            if expr_to_sql(expr).lower() in group_keys:
                return []
            if isinstance(expr, FuncCall) and is_aggregate_name(expr.name):
                return []
            if isinstance(expr, ColumnRef):
                try:
                    position = schema.index_of(expr.name, expr.qualifier)
                except SchemaError:
                    return []
                return [] if position in group_positions else [expr]
            from repro.sql.exprutil import children

            out: List[ColumnRef] = []
            for child in children(expr):
                out.extend(offenders(child))
            return out

        for item in self.stmt.items:
            if isinstance(item.expr, Star):
                continue
            for ref in offenders(item.expr):
                self.diags.append(
                    error(
                        "EII106",
                        f"column {ref} must appear in GROUP BY or inside an aggregate",
                        span=span_of(self.text, ref.name),
                        hint=f"add {ref} to GROUP BY or wrap it in MIN()/MAX()",
                    )
                )

    # -- type checking -------------------------------------------------------------

    def _type_check(self, schema: RelSchema) -> None:
        for context, expr, _allow in self._expressions():
            result = self._infer(expr, schema)
            if context in ("WHERE", "HAVING", "ON") and _concrete(result) and result is not DataType.BOOL:
                self._mismatch(
                    f"{context} condition has type {result.value}, expected bool", expr
                )

    def _infer(self, expr: Expr, schema: RelSchema) -> Optional[DataType]:
        """Best-effort type of `expr`; None = unknown. Emits EII104 findings."""
        if isinstance(expr, Literal):
            try:
                return infer_type(expr.value)
            except EIIError:
                return None
        if isinstance(expr, ColumnRef):
            try:
                return schema.column(expr.name, expr.qualifier).dtype
            except SchemaError:
                return None  # already reported as EII102/EII103
        if isinstance(expr, Star):
            return None
        if isinstance(expr, BinaryOp):
            left = self._infer(expr.left, schema)
            right = self._infer(expr.right, schema)
            if expr.op in ("AND", "OR"):
                for side, side_type in ((expr.left, left), (expr.right, right)):
                    if _concrete(side_type) and side_type is not DataType.BOOL:
                        self._mismatch(
                            f"{expr.op} operand {expr_to_sql(side)} has type "
                            f"{side_type.value}, expected bool",
                            side,
                        )
                return DataType.BOOL
            if expr.op in _COMPARISONS:
                if _concrete(left) and _concrete(right) and not _comparable(left, right):
                    self._mismatch(
                        f"cannot compare {left.value} to {right.value} in "
                        f"{expr_to_sql(expr)}",
                        expr,
                    )
                return DataType.BOOL
            if expr.op == "||":
                for side, side_type in ((expr.left, left), (expr.right, right)):
                    if _concrete(side_type) and side_type is not DataType.STRING:
                        self._mismatch(
                            f"|| operand {expr_to_sql(side)} has type {side_type.value}, "
                            "expected string",
                            side,
                        )
                return DataType.STRING
            if expr.op in _ARITHMETIC:
                for side, side_type in ((expr.left, left), (expr.right, right)):
                    if _concrete(side_type) and side_type not in _NUMERIC:
                        self._mismatch(
                            f"arithmetic on non-numeric operand {expr_to_sql(side)} "
                            f"({side_type.value})",
                            side,
                        )
                if left is DataType.FLOAT or right is DataType.FLOAT or expr.op == "/":
                    return DataType.FLOAT
                if left is DataType.INT and right is DataType.INT:
                    return DataType.INT
                return None
            return None
        if isinstance(expr, UnaryOp):
            operand = self._infer(expr.operand, schema)
            if expr.op == "NOT":
                if _concrete(operand) and operand is not DataType.BOOL:
                    self._mismatch(
                        f"NOT operand has type {operand.value}, expected bool", expr
                    )
                return DataType.BOOL
            if _concrete(operand) and operand not in _NUMERIC:
                self._mismatch(
                    f"negation of non-numeric operand ({operand.value})", expr
                )
            return operand
        if isinstance(expr, FuncCall):
            return self._infer_call(expr, schema)
        if isinstance(expr, IsNull):
            self._infer(expr.operand, schema)
            return DataType.BOOL
        if isinstance(expr, InList):
            operand = self._infer(expr.operand, schema)
            for item in expr.items:
                item_type = self._infer(item, schema)
                if _concrete(operand) and _concrete(item_type) and not _comparable(operand, item_type):
                    self._mismatch(
                        f"IN list item {expr_to_sql(item)} ({item_type.value}) is not "
                        f"comparable to {expr_to_sql(expr.operand)} ({operand.value})",
                        item,
                    )
            return DataType.BOOL
        if isinstance(expr, Like):
            for side in (expr.operand, expr.pattern):
                side_type = self._infer(side, schema)
                if _concrete(side_type) and side_type is not DataType.STRING:
                    self._mismatch(
                        f"LIKE operand {expr_to_sql(side)} has type {side_type.value}, "
                        "expected string",
                        side,
                    )
            return DataType.BOOL
        if isinstance(expr, Between):
            operand = self._infer(expr.operand, schema)
            for bound in (expr.low, expr.high):
                bound_type = self._infer(bound, schema)
                if _concrete(operand) and _concrete(bound_type) and not _comparable(operand, bound_type):
                    self._mismatch(
                        f"BETWEEN bound {expr_to_sql(bound)} ({bound_type.value}) is not "
                        f"comparable to {expr_to_sql(expr.operand)} ({operand.value})",
                        bound,
                    )
            return DataType.BOOL
        if isinstance(expr, CaseWhen):
            branch_types = set()
            for condition, value in expr.whens:
                cond_type = self._infer(condition, schema)
                if _concrete(cond_type) and cond_type is not DataType.BOOL:
                    self._mismatch(
                        f"CASE condition has type {cond_type.value}, expected bool",
                        condition,
                    )
                branch_types.add(self._infer(value, schema))
            if expr.default is not None:
                branch_types.add(self._infer(expr.default, schema))
            return branch_types.pop() if len(branch_types) == 1 else None
        return None

    def _infer_call(self, call: FuncCall, schema: RelSchema) -> Optional[DataType]:
        name = call.name.upper()
        arg_types = [
            None if isinstance(arg, Star) else self._infer(arg, schema)
            for arg in call.args
        ]
        if is_aggregate_name(name):
            if name == "COUNT":
                return DataType.INT
            first = arg_types[0] if arg_types else None
            if name in ("SUM", "AVG") and _concrete(first) and first not in _NUMERIC:
                self._mismatch(
                    f"{name} over non-numeric argument "
                    f"{expr_to_sql(call.args[0])} ({first.value})",
                    call,
                )
            if name == "AVG":
                return DataType.FLOAT
            return first
        checked = zip(call.args, arg_types)
        if name in _STRING_ARG_FUNCTIONS:
            arg, first = next(checked, (None, None))
            if arg is not None and _concrete(first) and first is not DataType.STRING:
                self._mismatch(
                    f"{name} argument {expr_to_sql(arg)} has type {first.value}, "
                    "expected string",
                    arg,
                )
        elif name in _NUMERIC_ARG_FUNCTIONS:
            for arg, arg_type in checked:
                if _concrete(arg_type) and arg_type not in _NUMERIC:
                    self._mismatch(
                        f"{name} argument {expr_to_sql(arg)} has type "
                        f"{arg_type.value}, expected a number",
                        arg,
                    )
        elif name in _DATE_ARG_FUNCTIONS:
            arg, first = next(checked, (None, None))
            if arg is not None and _concrete(first) and first is not DataType.DATE:
                self._mismatch(
                    f"{name} argument {expr_to_sql(arg)} has type {first.value}, "
                    "expected a date",
                    arg,
                )
        return _SCALAR_RETURNS.get(name)

    def _mismatch(self, message: str, expr: Expr) -> None:
        anchor = next(iter(column_refs(expr)), None)
        self.diags.append(
            error(
                "EII104",
                message,
                span=span_of(self.text, anchor.name) if anchor is not None else None,
                hint="check column types with \\tables or the catalog schema",
            )
        )


def _concrete(data_type: Optional[DataType]) -> bool:
    return data_type is not None and data_type is not DataType.ANY


def _comparable(a: DataType, b: DataType) -> bool:
    return a.accepts(b) or b.accepts(a)


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


def _resolve_or_report(table: str, resolver, text, diags) -> Optional[RelSchema]:
    try:
        return resolver.resolve_table(table)
    except EIIError as exc:
        diags.append(
            error(
                "EII101",
                f"unknown table {table!r}",
                span=span_of(text, table),
                hint=str(exc),
            )
        )
        return None


def _check_insert(stmt: Insert, resolver, text, diags: List[Diagnostic]) -> None:
    schema = _resolve_or_report(stmt.table, resolver, text, diags)
    if schema is None:
        return
    target_columns = list(stmt.columns) if stmt.columns else schema.names
    for name in stmt.columns:
        if not schema.has(name):
            diags.append(
                error(
                    "EII102",
                    f"unknown column {name!r} in INSERT into {stmt.table!r}",
                    span=span_of(text, name),
                    hint=f"available: {', '.join(schema.names)}",
                )
            )
    width = len(target_columns)
    for index, row in enumerate(stmt.rows):
        if len(row) != width:
            diags.append(
                error(
                    "EII112",
                    f"INSERT row {index + 1} has {len(row)} values for "
                    f"{width} columns",
                    span=span_of(text, "VALUES"),
                    hint="match the VALUES tuple to the column list",
                )
            )
            continue
        for name, expr in zip(target_columns, row):
            if not isinstance(expr, Literal) or not schema.has(name):
                continue
            try:
                value_type = infer_type(expr.value)
            except EIIError:
                continue
            target = schema.column(name).dtype
            if _concrete(value_type) and not target.accepts(value_type):
                diags.append(
                    error(
                        "EII104",
                        f"INSERT value {expr_to_sql(expr)} ({value_type.value}) does "
                        f"not fit column {name!r} ({target.value})",
                        span=span_of(text, name),
                        hint="cast or correct the literal",
                    )
                )


def _check_update(stmt: Update, resolver, text, diags: List[Diagnostic]) -> None:
    schema = _resolve_or_report(stmt.table, resolver, text, diags)
    if schema is None:
        return
    select = Select(items=(), from_tables=())  # reuse the expression machinery
    checker = _SelectChecker(select, resolver, text, diags)
    checker.schema = schema
    for name, value in stmt.assignments:
        if not schema.has(name):
            diags.append(
                error(
                    "EII102",
                    f"unknown column {name!r} in UPDATE of {stmt.table!r}",
                    span=span_of(text, name),
                    hint=f"available: {', '.join(schema.names)}",
                )
            )
            continue
        checker._check_refs("SET", value, schema, set())
        value_type = checker._infer(value, schema)
        target = schema.column(name).dtype
        if _concrete(value_type) and not target.accepts(value_type):
            diags.append(
                error(
                    "EII104",
                    f"assignment to {name!r} ({target.value}) from incompatible "
                    f"type {value_type.value}",
                    span=span_of(text, name),
                    hint="cast or correct the expression",
                )
            )
    if stmt.where is not None:
        if contains_aggregate(stmt.where):
            diags.append(
                error(
                    "EII105",
                    "aggregates are not allowed in WHERE",
                    span=span_of(text, "WHERE"),
                    hint="filter aggregated values with HAVING instead",
                )
            )
        checker._check_refs("WHERE", stmt.where, schema, set())
        checker._infer(stmt.where, schema)


def _check_delete(stmt: Delete, resolver, text, diags: List[Diagnostic]) -> None:
    schema = _resolve_or_report(stmt.table, resolver, text, diags)
    if schema is None or stmt.where is None:
        return
    select = Select(items=(), from_tables=())
    checker = _SelectChecker(select, resolver, text, diags)
    checker._check_refs("WHERE", stmt.where, schema, set())
    checker._infer(stmt.where, schema)
