"""Render AST nodes back to SQL text.

`to_sql` produces canonical text for the in-package dialect; the wrapper
layer (`repro.wrappers.dialects`) passes `PrintOptions` to adapt function
names and operator spellings per vendor. Round-tripping `parse(to_sql(x))`
is covered by property tests.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import PlanError
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
    Param,
    Select,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
    UnionSelect,
    Update,
)


@dataclass(frozen=True)
class PrintOptions:
    """Dialect knobs for SQL generation."""

    #: map canonical function name -> vendor spelling (e.g. SUBSTR -> SUBSTRING)
    function_names: dict = field(default_factory=dict)
    #: vendor spelling of string concatenation; None keeps `||`
    concat_operator: Optional[str] = None
    #: render booleans as 1/0 instead of TRUE/FALSE
    integer_booleans: bool = False
    #: uppercase all keywords (always true here; kept for future dialects)
    uppercase_keywords: bool = True


DEFAULT_OPTIONS = PrintOptions()


def render_literal(value, options: PrintOptions = DEFAULT_OPTIONS) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        if options.integer_booleans:
            return "1" if value else "0"
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    raise PlanError(f"cannot render literal {value!r}")


def expr_to_sql(expr: Expr, options: PrintOptions = DEFAULT_OPTIONS, values: tuple = ()) -> str:
    """`expr` as SQL, each `Param` its constant in `values` (none given: its slot)."""
    if isinstance(expr, Literal):
        return render_literal(expr.value, options)
    if isinstance(expr, Param):
        return expr_to_sql(expr.value_in(values), options) if values else expr.slot
    if isinstance(expr, ColumnRef):
        return f"{expr.qualifier}.{expr.name}" if expr.qualifier else expr.name
    if isinstance(expr, Star):
        return f"{expr.qualifier}.*" if expr.qualifier else "*"
    if isinstance(expr, BinaryOp):
        op = expr.op
        if op == "||" and options.concat_operator:
            op = options.concat_operator
        left = expr_to_sql(expr.left, options, values)
        right = expr_to_sql(expr.right, options, values)
        return f"({left} {op} {right})"
    if isinstance(expr, UnaryOp):
        operand = expr_to_sql(expr.operand, options, values)
        if expr.op == "NOT":
            return f"(NOT {operand})"
        return f"(-{operand})"
    if isinstance(expr, FuncCall):
        name = options.function_names.get(expr.name, expr.name)
        inner = ", ".join(expr_to_sql(arg, options, values) for arg in expr.args)
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{name}({inner})"
    if isinstance(expr, IsNull):
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({expr_to_sql(expr.operand, options, values)} {keyword})"
    if isinstance(expr, InList):
        keyword = "NOT IN" if expr.negated else "IN"
        items = expr.items
        if isinstance(items, Param):  # a prepared bind join's keys
            if not values:
                return f"({expr_to_sql(expr.operand, options, values)} {keyword} {items.slot})"
            items = items.value_in(values)
        inner = ", ".join(expr_to_sql(item, options, values) for item in items)
        return f"({expr_to_sql(expr.operand, options, values)} {keyword} ({inner}))"
    if isinstance(expr, Like):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return (
            f"({expr_to_sql(expr.operand, options, values)} {keyword} "
            f"{expr_to_sql(expr.pattern, options, values)})"
        )
    if isinstance(expr, Between):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"({expr_to_sql(expr.operand, options, values)} {keyword} "
            f"{expr_to_sql(expr.low, options, values)} AND {expr_to_sql(expr.high, options, values)})"
        )
    if isinstance(expr, CaseWhen):
        parts = ["CASE"]
        for cond, value in expr.whens:
            parts.append(
                f"WHEN {expr_to_sql(cond, options, values)} THEN {expr_to_sql(value, options, values)}"
            )
        if expr.default is not None:
            parts.append(f"ELSE {expr_to_sql(expr.default, options, values)}")
        parts.append("END")
        return " ".join(parts)
    raise PlanError(f"cannot print expression {type(expr).__name__}")


def _select_item(item: SelectItem, options: PrintOptions, values: tuple) -> str:
    text = expr_to_sql(item.expr, options, values)
    if item.alias:
        return f"{text} AS {item.alias}"
    return text


def _table_ref(table: TableRef) -> str:
    if table.alias:
        return f"{table.name} AS {table.alias}"
    return table.name


def to_sql(statement, options: PrintOptions = DEFAULT_OPTIONS, values: tuple = ()) -> str:
    """Render a statement AST to SQL text, each `Param` its constant in `values`."""
    if isinstance(statement, Select):
        parts = ["SELECT"]
        if statement.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(_select_item(item, options, values) for item in statement.items))
        if statement.from_tables:
            parts.append("FROM")
            parts.append(", ".join(_table_ref(t) for t in statement.from_tables))
        for join in statement.joins:
            parts.append(f"{join.kind} JOIN {_table_ref(join.table)}")
            if join.condition is not None:
                parts.append(f"ON {expr_to_sql(join.condition, options, values)}")
        if statement.where is not None:
            parts.append(f"WHERE {expr_to_sql(statement.where, options, values)}")
        if statement.group_by:
            parts.append(
                "GROUP BY " + ", ".join(expr_to_sql(g, options, values) for g in statement.group_by)
            )
        if statement.having is not None:
            parts.append(f"HAVING {expr_to_sql(statement.having, options, values)}")
        if statement.order_by:
            rendered = []
            for item in statement.order_by:
                direction = "ASC" if item.ascending else "DESC"
                rendered.append(f"{expr_to_sql(item.expr, options, values)} {direction}")
            parts.append("ORDER BY " + ", ".join(rendered))
        if statement.limit is not None:
            parts.append(f"LIMIT {statement.limit}")
        return " ".join(parts)

    if isinstance(statement, UnionSelect):
        keyword = " UNION ALL " if statement.all else " UNION "
        text = keyword.join(to_sql(select, options, values) for select in statement.selects)
        if statement.order_by:
            rendered = []
            for item in statement.order_by:
                direction = "ASC" if item.ascending else "DESC"
                rendered.append(f"{expr_to_sql(item.expr, options, values)} {direction}")
            text += " ORDER BY " + ", ".join(rendered)
        if statement.limit is not None:
            text += f" LIMIT {statement.limit}"
        return text

    if isinstance(statement, Insert):
        columns = f" ({', '.join(statement.columns)})" if statement.columns else ""
        rows = ", ".join(
            "(" + ", ".join(expr_to_sql(v, options) for v in row) + ")"
            for row in statement.rows
        )
        return f"INSERT INTO {statement.table}{columns} VALUES {rows}"

    if isinstance(statement, Update):
        sets = ", ".join(
            f"{name} = {expr_to_sql(value, options)}"
            for name, value in statement.assignments
        )
        text = f"UPDATE {statement.table} SET {sets}"
        if statement.where is not None:
            text += f" WHERE {expr_to_sql(statement.where, options)}"
        return text

    if isinstance(statement, Delete):
        text = f"DELETE FROM {statement.table}"
        if statement.where is not None:
            text += f" WHERE {expr_to_sql(statement.where, options)}"
        return text

    if isinstance(statement, Expr):
        return expr_to_sql(statement, options, values)

    raise PlanError(f"cannot print statement {type(statement).__name__}")
