"""Abstract syntax tree for the SQL subset.

All nodes are frozen dataclasses: they are hashable, comparable and safe to
share between plans. Expression rewrites therefore build new trees rather
than mutating (see `repro.sql.exprutil`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.common.errors import PlanError


class Expr:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A constant: int, float, str, bool, datetime.date or None.

    Two literals are equal when they are the same constant to SQL, which is
    stricter than Python's `==`: `1`, `1.0` and `TRUE` (and `0.0`, `-0.0`)
    print, type and project differently. Plans are looked up by a shape's
    constants (`repro.sql.shape`), so this is what keeps them apart.
    """

    value: object

    def __eq__(self, other):
        if other.__class__ is not Literal:
            return NotImplemented
        mine, theirs = self.value, other.value
        if mine.__class__ is not theirs.__class__:
            return False
        if mine.__class__ is float:
            return repr(mine) == repr(theirs)
        return mine == theirs

    def __hash__(self):
        return hash((self.value.__class__, self.value))

    def __str__(self):
        from repro.sql.printer import render_literal

        return render_literal(self.value)


@dataclass(frozen=True)
class Param(Expr):
    """Slot `index` of a prepared statement (`repro.sql.shape.plant`): the
    constant at `index` of the values a run is given, of class `kind` (a bind
    join's keys: `LiteralValues`). A plan holds no constant there, so a rewrite
    that copies a `Param` copies the slot. It prints as its typed slot (`?int`)."""

    index: int
    kind: type

    @property
    def slot(self) -> str:
        return "?keys" if self.kind is LiteralValues else "?" + self.kind.__name__

    def value_in(self, values: tuple):
        """The constant this slot stands for in `values`, a run's or an
        estimate's; `PlanError` where they hold none."""
        if self.index < len(values):
            return values[self.index]
        raise PlanError(f"a prepared plan was estimated or run without a value for {self.slot}")

    def __str__(self):
        return self.slot


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference (`c.name` or `name`)."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self):
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Star(Expr):
    """`*` or `alias.*` in a select list, or inside COUNT(*)."""

    qualifier: Optional[str] = None

    def __str__(self):
        return f"{self.qualifier}.*" if self.qualifier else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operator; `op` is the canonical upper-case token.

    Comparison: = <> < <= > >=; arithmetic: + - * / %; logical: AND OR;
    string concatenation: ||.
    """

    op: str
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operator: NOT or - (negation)."""

    op: str
    operand: Expr

    def __str__(self):
        if self.op == "NOT":
            return f"(NOT {self.operand})"
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar or aggregate function call; aggregates are resolved by name."""

    name: str
    args: Tuple[Expr, ...]
    distinct: bool = False

    def __str__(self):
        inner = ", ".join(str(arg) for arg in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def __str__(self):
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {suffix})"


class LiteralValues(Sequence):
    """A bind join's IN-list items, held as the values: a sequence of `Literal`s
    made when first read, hashed and compared (per execution) as the tuple of
    them would be - by exact type and value, floats by `repr` - but at C level."""

    __slots__ = ("values", "_key", "_literals")

    def __init__(self, values):
        self.values = values = tuple(values)
        kinds = tuple(map(type, values))
        if float in kinds:
            values = tuple([repr(v) if type(v) is float else v for v in values])
        self._key = (kinds, values)
        self._literals = None

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        if self._literals is None:  # a statement no source has prepared yet
            self._literals = tuple(map(Literal, self.values))
        return self._literals[index]

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other):
        return other.__class__ is LiteralValues and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        return ", ".join(map(str, self))


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: Sequence[Expr]  # a tuple, `LiteralValues`, or the `Param` of a prepared bind join's keys
    negated: bool = False

    def __str__(self):
        keyword = "NOT IN" if self.negated else "IN"
        items = self.items
        inner = str(items) if items.__class__ is Param else ", ".join(str(item) for item in items)
        return f"({self.operand} {keyword} ({inner}))"


@dataclass(frozen=True)
class Like(Expr):
    """SQL LIKE with % and _ wildcards."""

    operand: Expr
    pattern: Expr
    negated: bool = False

    def __str__(self):
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand} {keyword} {self.pattern})"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def __str__(self):
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {keyword} {self.low} AND {self.high})"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """Searched CASE: WHEN cond THEN value ... [ELSE default] END."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def __str__(self):
        parts = ["CASE"]
        for cond, value in self.whens:
            parts.append(f"WHEN {cond} THEN {value}")
        if self.default is not None:
            parts.append(f"ELSE {self.default}")
        parts.append("END")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return str(self.expr)

    def __str__(self):
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


@dataclass(frozen=True)
class TableRef:
    """A base-table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is known by inside the query."""
        return self.alias or self.name

    def __str__(self):
        return f"{self.name} AS {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class JoinClause:
    """An explicit JOIN: `kind` is INNER or LEFT; `condition` is the ON expr."""

    table: TableRef
    kind: str = "INNER"
    condition: Optional[Expr] = None

    def __str__(self):
        on = f" ON {self.condition}" if self.condition is not None else ""
        return f"{self.kind} JOIN {self.table}{on}"


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True

    def __str__(self):
        return f"{self.expr} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class Select:
    """A SELECT statement over base tables with optional joins/grouping."""

    items: Tuple[SelectItem, ...]
    from_tables: Tuple[TableRef, ...] = ()
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False

    def tables(self) -> list[TableRef]:
        """All table references, FROM-list and JOIN clauses alike."""
        return list(self.from_tables) + [join.table for join in self.joins]

    @cached_property
    def text(self) -> str:
        """The canonical SQL text (`repro.sql.printer.to_sql`), printed once and
        kept on the statement: it is immutable, and a re-written statement is a
        new one (`dataclasses.replace`) that prints its own. A `Param` prints
        as its slot."""
        from repro.sql.printer import to_sql

        return to_sql(self)

    def __str__(self):
        return self.text


@dataclass(frozen=True)
class UnionSelect:
    """UNION [ALL] of two or more SELECTs.

    `order_by`/`limit` apply to the whole union (lifted by the parser from
    the final branch, per standard SQL reading).
    """

    selects: Tuple[Select, ...]
    all: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None

    def __str__(self):
        from repro.sql.printer import to_sql

        return to_sql(self)


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Expr, ...], ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expr] = None


#: Convenience constructors used heavily by the planner and tests.


def col(ref: str) -> ColumnRef:
    """Build a ColumnRef from `"name"` or `"qualifier.name"`."""
    if "." in ref:
        qualifier, name = ref.rsplit(".", 1)
        return ColumnRef(name, qualifier)
    return ColumnRef(ref)


def lit(value) -> Literal:
    return Literal(value)


def eq(left: Expr, right: Expr) -> BinaryOp:
    return BinaryOp("=", left, right)


def and_all(exprs: Sequence[Expr]) -> Optional[Expr]:
    """Conjoin a sequence of predicates; returns None for an empty sequence."""
    result: Optional[Expr] = None
    for expr in exprs:
        result = expr if result is None else BinaryOp("AND", result, expr)
    return result
