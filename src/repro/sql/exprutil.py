"""Expression-tree utilities used by the optimizer and the federation layer.

Expressions are immutable, so every rewrite returns a fresh tree.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

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
    Star,
    UnaryOp,
    and_all,
)
from repro.sql.functions import is_aggregate_name


def children(expr: Expr) -> list[Expr]:
    """Direct child expressions of a node."""
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnaryOp):
        return [expr.operand]
    if isinstance(expr, FuncCall):
        return list(expr.args)
    if isinstance(expr, IsNull):
        return [expr.operand]
    if isinstance(expr, InList):
        items = expr.items
        return [expr.operand, items] if items.__class__ is Param else [expr.operand, *items]
    if isinstance(expr, Like):
        return [expr.operand, expr.pattern]
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, CaseWhen):
        out: list[Expr] = []
        for cond, value in expr.whens:
            out.extend((cond, value))
        if expr.default is not None:
            out.append(expr.default)
        return out
    return []


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of the expression tree."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def column_refs(expr: Expr) -> list[ColumnRef]:
    """All column references in the expression, in traversal order."""
    return [node for node in walk(expr) if isinstance(node, ColumnRef)]


def referenced_qualifiers(expr: Expr) -> set[str]:
    """The set of table bindings (qualifiers) the expression touches.

    Unqualified references yield an empty-string marker so callers know the
    expression has references they cannot attribute to a single table.
    """
    out: set[str] = set()
    for ref in column_refs(expr):
        out.add(ref.qualifier or "")
    for node in walk(expr):
        if isinstance(node, Star):
            out.add(node.qualifier or "")
    return out


def contains_aggregate(expr: Expr) -> bool:
    return any(
        isinstance(node, FuncCall) and is_aggregate_name(node.name)
        for node in walk(expr)
    )


def split_conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Iterable[Expr]) -> Optional[Expr]:
    """Inverse of `split_conjuncts`; returns None for no conjuncts."""
    return and_all(list(conjuncts))


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild one node from `fn`-rewritten children; a leaf is returned as it is."""
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, fn(expr.operand))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(fn(arg) for arg in expr.args), expr.distinct)
    if isinstance(expr, IsNull):
        return IsNull(fn(expr.operand), expr.negated)
    if isinstance(expr, InList):
        items = expr.items  # a bind join's keys (`LiteralValues`, or their `Param`) stay whole
        if items.__class__ is not LiteralValues and items.__class__ is not Param:
            items = tuple(fn(i) for i in items)
        return InList(fn(expr.operand), items, expr.negated)
    if isinstance(expr, Like):
        return Like(fn(expr.operand), fn(expr.pattern), expr.negated)
    if isinstance(expr, Between):
        return Between(fn(expr.operand), fn(expr.low), fn(expr.high), expr.negated)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            tuple((fn(cond), fn(value)) for cond, value in expr.whens),
            fn(expr.default) if expr.default is not None else None,
        )
    return expr


def transform(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rewrite: `fn` may return a replacement node or None to keep.

    Children are rewritten first so `fn` sees already-rewritten subtrees.
    """

    def visit(node: Expr) -> Expr:
        rebuilt = map_children(node, visit)
        replacement = fn(rebuilt)
        return rebuilt if replacement is None else replacement

    return visit(expr)


def with_values(expr: Expr, values: tuple) -> Expr:
    """`expr` with each `Param` the constant it stands for in `values` (a
    `Literal`; a bind join's keys, `LiteralValues`, as an IN-list's items)."""

    def constant(node: Expr) -> Optional[Expr]:
        if node.__class__ is Param:
            return node.value_in(values)
        if node.__class__ is InList and node.items.__class__ is Param:
            return InList(node.operand, node.items.value_in(values), node.negated)
        return None

    return transform(expr, constant)


def printed(expr: Expr, values: tuple = ()) -> str:
    """`str(expr)`, each `Param` its constant in `values` (none given: its slot)."""
    return str(with_values(expr, values) if values else expr)


def substitute_columns(expr: Expr, mapping: dict) -> Expr:
    """Replace ColumnRefs per `mapping`.

    Keys may be `ColumnRef`s or `(qualifier, name)` tuples (lower-cased
    name/qualifier); values are replacement expressions. Used for view
    unfolding and GAV reformulation.
    """

    def rewrite(node: Expr) -> Optional[Expr]:
        if not isinstance(node, ColumnRef):
            return None
        direct = mapping.get(node)
        if direct is not None:
            return direct
        key = (
            (node.qualifier or "").lower(),
            node.name.lower(),
        )
        return mapping.get(key)

    return transform(expr, rewrite)


def requalify(expr: Expr, old: Optional[str], new: Optional[str]) -> Expr:
    """Rewrite qualifiers equal to `old` (case-insensitive) to `new`."""

    def rewrite(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef):
            node_q = (node.qualifier or "").lower()
            if node_q == (old or "").lower():
                return ColumnRef(node.name, new)
        return None

    return transform(expr, rewrite)


#: the comparison that holds with its operands swapped
SWAPPED_COMPARISONS = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def column_vs_literal(expr: Expr) -> Optional[tuple[ColumnRef, str, object]]:
    """`(column, op, value)` if the expression compares a column with a
    literal, written either way round; `op` reads `column <op> value`. Where
    the literal is a `Param`, `value` is the `Param`: its constant is the run's."""
    if isinstance(expr, BinaryOp) and expr.op in SWAPPED_COMPARISONS:
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and isinstance(right, (Literal, Param)):
            return left, expr.op, right if right.__class__ is Param else right.value
        if isinstance(left, (Literal, Param)) and isinstance(right, ColumnRef):
            return right, SWAPPED_COMPARISONS[expr.op], left if left.__class__ is Param else left.value
    return None


def is_literal_comparison(expr: Expr) -> bool:
    """True for `col <op> literal` / `literal <op> col` shapes."""
    return column_vs_literal(expr) is not None


def equi_join_sides(expr: Expr) -> Optional[tuple[ColumnRef, ColumnRef]]:
    """Return (left_col, right_col) if the expression is `col = col`."""
    if (
        isinstance(expr, BinaryOp)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
    ):
        return expr.left, expr.right
    return None
