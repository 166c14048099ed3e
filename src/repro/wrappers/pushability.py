"""The capability contract: what a source may be sent.

`statement_reasons` is the one decision whether a component statement fits
a source: the federated planner, strict mode's EII401 and every source's
`execute_select` read it. `binding_supplier` is the one matcher of the
conjuncts that hand a binding-pattern source its keys: the contract, the
planner and EII201/EII203 read it.
"""

from __future__ import annotations

from typing import Optional

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
    LiteralValues,
    Param,
    Select,
    Star,
    UnaryOp,
)
from repro.sql.exprutil import column_vs_literal, split_conjuncts
from repro.sql.functions import is_aggregate_name
from repro.wrappers.dialects import (
    Dialect,
    PRED_BETWEEN,
    PRED_CASE,
    PRED_COMPARISON,
    PRED_IN,
    PRED_ISNULL,
    PRED_LIKE,
    PRED_OR,
)

_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
_ARITH_OPS = ("+", "-", "*", "/", "%", "||")


def unsupported_reasons(expr: Expr, dialect: Dialect) -> list[str]:
    """Why `dialect` cannot evaluate `expr`; empty list means it can."""
    reasons: list[str] = []
    _walk(expr, dialect, reasons)
    return reasons


def _walk(expr: Expr, dialect: Dialect, reasons: list[str]) -> None:
    if isinstance(expr, (Literal, Param, ColumnRef, Star)):  # a `Param`: the constant it stands for
        return
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            pass
        elif expr.op == "OR":
            if PRED_OR not in dialect.supported_predicates:
                reasons.append(f"{dialect}: OR not supported")
        elif expr.op in _COMPARISON_OPS:
            if PRED_COMPARISON not in dialect.supported_predicates:
                reasons.append(f"{dialect}: comparison {expr.op} not supported")
        elif expr.op in _ARITH_OPS:
            if not dialect.supports_arithmetic:
                reasons.append(f"{dialect}: arithmetic {expr.op} not supported")
        else:
            reasons.append(f"{dialect}: operator {expr.op} unknown")
        _walk(expr.left, dialect, reasons)
        _walk(expr.right, dialect, reasons)
        return
    if isinstance(expr, UnaryOp):
        _walk(expr.operand, dialect, reasons)
        return
    if isinstance(expr, FuncCall):
        if is_aggregate_name(expr.name):
            if not dialect.supports_aggregate:
                reasons.append(f"{dialect}: aggregate {expr.name} not supported")
        elif expr.name not in dialect.supported_functions:
            reasons.append(f"{dialect}: function {expr.name} not supported")
        for arg in expr.args:
            _walk(arg, dialect, reasons)
        return
    if isinstance(expr, IsNull):
        if PRED_ISNULL not in dialect.supported_predicates:
            reasons.append(f"{dialect}: IS NULL not supported")
        _walk(expr.operand, dialect, reasons)
        return
    if isinstance(expr, InList):
        if PRED_IN not in dialect.supported_predicates:
            reasons.append(f"{dialect}: IN not supported")
        _walk(expr.operand, dialect, reasons)
        for item in expr.items:
            _walk(item, dialect, reasons)
        return
    if isinstance(expr, Like):
        if PRED_LIKE not in dialect.supported_predicates:
            reasons.append(f"{dialect}: LIKE not supported")
        _walk(expr.operand, dialect, reasons)
        _walk(expr.pattern, dialect, reasons)
        return
    if isinstance(expr, Between):
        if PRED_BETWEEN not in dialect.supported_predicates:
            reasons.append(f"{dialect}: BETWEEN not supported")
        for child in (expr.operand, expr.low, expr.high):
            _walk(child, dialect, reasons)
        return
    if isinstance(expr, CaseWhen):
        if PRED_CASE not in dialect.supported_predicates:
            reasons.append(f"{dialect}: CASE not supported")
        for cond, value in expr.whens:
            _walk(cond, dialect, reasons)
            _walk(value, dialect, reasons)
        if expr.default is not None:
            _walk(expr.default, dialect, reasons)
        return
    reasons.append(f"{dialect}: expression {type(expr).__name__} unknown")


def binding_supplier(conjunct: Expr) -> Optional[tuple]:
    """``(column, keys)`` when `conjunct` is `col = v`, `v = col` or
    `col IN (v, ...)` over literals (a `Param`'s key: the `Param`); None otherwise."""
    if isinstance(conjunct, InList):
        column, items = conjunct.operand, conjunct.items
        if conjunct.negated or not isinstance(column, ColumnRef):
            return None
        if isinstance(items, LiteralValues):  # a bind join's keys, never walked
            return column, items.values
        values = [item.value for item in items if isinstance(item, Literal)]
        return (column, tuple(values)) if len(values) == len(items) else None
    found = column_vs_literal(conjunct)
    if found is not None and found[1] == "=":
        return found[0], (found[2],)
    return None


def statement_reasons(stmt: Select, capabilities) -> list[str]:
    """Why `stmt` may not be sent to a source declaring `capabilities` (a
    `SourceCapabilities`); empty when it may.

    A conjunct supplying a table's required binding is a call parameter,
    exempt from every other check. A dialect with no predicates is sent bare
    columns and binding suppliers only.
    """
    dialect = capabilities.dialect
    reasons: list[str] = []
    tables = stmt.tables()
    if len(tables) > 1 and not dialect.supports_join:
        reasons.append(f"{dialect}: join pushdown not supported")
    if (stmt.group_by or stmt.having is not None or stmt.distinct) and not dialect.supports_aggregate:
        reasons.append(f"{dialect}: aggregate/DISTINCT pushdown not supported")
    if (stmt.order_by or stmt.limit is not None) and not dialect.supports_sort_limit:
        reasons.append(f"{dialect}: sort/limit pushdown not supported")
    required: dict[str, str] = {}  # table binding -> the column it needs keys for
    if capabilities.binding_patterns:
        for ref in tables:
            column = capabilities.required_binding(ref.name)
            if column is not None:
                required[ref.binding.lower()] = column
    scan_only = not dialect.supported_predicates
    exprs: list[Expr] = []
    for item in stmt.items:
        if isinstance(item.expr, (ColumnRef, Star)):
            continue
        if scan_only:
            reasons.append(f"{dialect}: computed column {item.expr} not supported")
        else:
            exprs.append(item.expr)
    bound: set[str] = set()
    for conjunct in split_conjuncts(stmt.where):
        supplied = binding_supplier(conjunct) if required else None
        if supplied is not None:
            name, qualifier = supplied[0].name.lower(), supplied[0].qualifier
            supplies = [
                binding for binding, column in required.items()
                if column == name and (qualifier is None or qualifier.lower() == binding)
            ]
            if supplies:
                bound.update(supplies)
                continue
        if scan_only:
            reasons.append(f"{dialect}: predicate {conjunct} not supported")
        else:
            exprs.append(conjunct)
    exprs += stmt.group_by
    if stmt.having is not None:
        exprs.append(stmt.having)
    exprs += [order.expr for order in stmt.order_by]
    exprs += [join.condition for join in stmt.joins if join.condition is not None]
    for expr in exprs:
        _walk(expr, dialect, reasons)
    for binding, column in required.items():
        if binding not in bound:
            reasons.append(f"table {binding!r} requires a binding on {column!r}")
    return reasons
