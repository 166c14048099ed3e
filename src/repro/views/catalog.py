"""View definitions compiled for query answering.

`compile_shape` normalizes a SELECT into a `QueryShape`: every column
reference is resolved to its *real* source table (aliases erased, case
folded), join conditions of inner joins are folded into the conjunct set,
and every expression gets a canonical text under which it can be compared
across queries. A `CompiledView` is a shape plus the output-column maps the
matcher needs: which `table.column` (and which whole expressions) the view
exposes under which output name.

The normalization is deliberately conservative: anything the matcher
cannot reason about (star projections, unions, DISTINCT views, subqueries
via unknown tables, duplicate table uses) raises `UnsupportedShape`, and
the answering layer simply leaves those queries to base federation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.errors import EIIError
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    OrderItem,
    Select,
    Star,
)
from repro.sql.exprutil import (
    column_refs,
    contains_aggregate,
    map_children,
    split_conjuncts,
)
from repro.sql.functions import is_aggregate_name


class UnsupportedShape(EIIError):
    """The statement is outside the matcher's SELECT-project-join-aggregate
    fragment; view answering skips it (base federation still runs it)."""


@dataclass(frozen=True)
class ServePolicy:
    """When a matching materialized view may answer instead of federating.

    The Halevy tradeoff, as a policy object: ``max_staleness_s`` is the
    serve-if-fresher-than bound (None = any age, as long as the view is not
    dirty); ``serve_stale`` opts into answering from a dirty or over-stale
    view anyway — the result is then annotated ``fresh=False`` and is never
    admitted to the result cache.
    """

    max_staleness_s: Optional[float] = None
    serve_stale: bool = False

    def is_fresh(self, dirty: bool, staleness_s: float) -> bool:
        if dirty:
            return False
        if self.max_staleness_s is None:
            return True
        return staleness_s <= self.max_staleness_s


@dataclass(frozen=True)
class ShapeItem:
    """One normalized output column of a SELECT."""

    name: str  # output (alias or column) name, original case
    expr: Expr  # normalized expression
    text: str  # canonical text of `expr`
    is_aggregate: bool


@dataclass
class QueryShape:
    """A SELECT normalized for view matching."""

    tables: frozenset  # real table names, lower-cased
    #: ordered ((kind, table, canonical condition text) ...); populated —
    #: and required to match exactly — only when the query has LEFT joins
    join_sig: tuple = ()
    has_left: bool = False
    #: canonical text -> normalized conjunct (WHERE plus inner-join ON)
    conjuncts: dict = field(default_factory=dict)
    items: list = field(default_factory=list)  # list[ShapeItem]
    group: list = field(default_factory=list)  # [(text, normalized expr)]
    having: Optional[Expr] = None
    order_by: tuple = ()  # normalized OrderItems
    limit: Optional[int] = None
    distinct: bool = False
    is_aggregate: bool = False

    @property
    def group_texts(self) -> set:
        return {text for text, _ in self.group}

    def needed_columns(self) -> set:
        """Qualified `table.column` texts the compensation must read."""
        needed: set = set()
        exprs: list = [item.expr for item in self.items]
        exprs.extend(expr for _, expr in self.group)
        if self.having is not None:
            exprs.append(self.having)
        exprs.extend(order.expr for order in self.order_by)
        exprs.extend(self.conjuncts.values())
        for expr in exprs:
            for ref in column_refs(expr):
                if ref.qualifier is not None:
                    needed.add(str(ref))
        return needed


@dataclass
class CompiledView:
    """A materialized view's shape plus its output-column maps."""

    name: str
    sql: str
    shape: QueryShape
    #: canonical expression text -> output column name; includes plain
    #: columns (text "table.column") and computed/aggregate outputs alike
    outputs: dict = field(default_factory=dict)
    #: canonical aggregate text -> output name (subset of `outputs`)
    aggregate_outputs: dict = field(default_factory=dict)


def canonical_text(expr: Expr) -> str:
    """Canonical comparison text: commutative equality is side-sorted."""
    if (
        isinstance(expr, BinaryOp)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
    ):
        left, right = str(expr.left), str(expr.right)
        if right < left:
            left, right = right, left
        return f"({left} = {right})"
    return str(expr)


class _Resolver:
    """Rewrites expressions so every column carries its real table name."""

    def __init__(self, binding_to_table: dict, schema_of: Callable, aliases: set):
        self.binding_to_table = binding_to_table  # binding -> real table
        self.schema_of = schema_of  # table -> list of column names (lower)
        self.aliases = aliases  # query output aliases (lower)

    def resolve_column(self, ref: ColumnRef) -> ColumnRef:
        name = ref.name.lower()
        if ref.qualifier is not None:
            table = self.binding_to_table.get(ref.qualifier.lower())
            if table is None:
                raise UnsupportedShape(f"unknown binding {ref.qualifier!r}")
            if name not in self.schema_of(table):
                raise UnsupportedShape(f"unknown column {ref}")
            return ColumnRef(name, table)
        owners = [
            table
            for table in sorted(set(self.binding_to_table.values()))
            if name in self.schema_of(table)
        ]
        if len(owners) == 1:
            return ColumnRef(name, owners[0])
        if not owners and name in self.aliases:
            # a reference to the query's own output alias (ORDER BY etc.)
            return ColumnRef(name)
        raise UnsupportedShape(
            f"cannot attribute column {ref.name!r} to one table"
        )

    def expr(self, node: Expr) -> Expr:
        if isinstance(node, ColumnRef):
            return self.resolve_column(node)
        if isinstance(node, Star) and node.qualifier is not None:
            raise UnsupportedShape("qualified * is not matchable")
        rebuilt = map_children(node, self.expr)
        if isinstance(rebuilt, FuncCall):
            return FuncCall(rebuilt.name.upper(), rebuilt.args, rebuilt.distinct)
        return rebuilt


def compile_shape(select: Select, catalog) -> QueryShape:
    """Normalize `select` against the federation `catalog`.

    Raises `UnsupportedShape` for statements outside the matchable
    fragment. `catalog` needs `has_table(name)` and `entry(name).schema`.
    """
    if not isinstance(select, Select):
        raise UnsupportedShape("only plain SELECTs are matchable")
    tables = select.tables()
    binding_to_table: dict = {}
    real_tables: list = []
    for ref in tables:
        table = ref.name.lower()
        if not catalog.has_table(table):
            raise UnsupportedShape(f"unknown table {ref.name!r}")
        if table in real_tables:
            raise UnsupportedShape("self-joins are not matchable")
        real_tables.append(table)
        binding_to_table[ref.binding.lower()] = table

    schemas: dict = {}

    def schema_of(table: str) -> set:
        names = schemas.get(table)
        if names is None:
            names = schemas[table] = {
                name.lower() for name in catalog.entry(table).schema.names
            }
        return names

    aliases = {item.output_name.lower() for item in select.items}
    resolver = _Resolver(binding_to_table, schema_of, aliases)

    shape = QueryShape(tables=frozenset(real_tables))
    shape.has_left = any(join.kind != "INNER" for join in select.joins)

    conjuncts: list = list(split_conjuncts(select.where))
    if shape.has_left:
        signature = []
        for join in select.joins:
            condition = (
                canonical_text(resolver.expr(join.condition))
                if join.condition is not None
                else ""
            )
            signature.append((join.kind, join.table.name.lower(), condition))
        shape.join_sig = tuple(signature)
    else:
        for join in select.joins:
            if join.condition is not None:
                conjuncts.extend(split_conjuncts(join.condition))
    for conjunct in conjuncts:
        normalized = resolver.expr(conjunct)
        shape.conjuncts[canonical_text(normalized)] = normalized

    for item in select.items:
        if isinstance(item.expr, Star):
            raise UnsupportedShape("star projections are not matchable")
        normalized = resolver.expr(item.expr)
        shape.items.append(
            ShapeItem(
                item.output_name,
                normalized,
                canonical_text(normalized),
                contains_aggregate(normalized),
            )
        )
    for group_expr in select.group_by:
        normalized = resolver.expr(group_expr)
        shape.group.append((canonical_text(normalized), normalized))
    if select.having is not None:
        shape.having = resolver.expr(select.having)
    shape.order_by = tuple(
        OrderItem(resolver.expr(order.expr), order.ascending)
        for order in select.order_by
    )
    shape.limit = select.limit
    shape.distinct = select.distinct
    shape.is_aggregate = bool(shape.group) or any(
        item.is_aggregate for item in shape.items
    )
    return shape


def compile_view(name: str, sql: str, select: Select, catalog) -> CompiledView:
    """Compile one materialized view definition for matching.

    Beyond `compile_shape`, views must have unique output names, no
    DISTINCT/LIMIT (they change multiplicity under rollup), and no HAVING
    (group filtering the matcher cannot compensate for).
    """
    shape = compile_shape(select, catalog)
    if shape.distinct:
        raise UnsupportedShape("DISTINCT views are not matchable")
    if shape.limit is not None:
        raise UnsupportedShape("LIMIT views are not matchable")
    if shape.having is not None:
        raise UnsupportedShape("HAVING views are not matchable")
    compiled = CompiledView(name=name.lower(), sql=sql, shape=shape)
    seen: set = set()
    for item in shape.items:
        lowered = item.name.lower()
        if lowered in seen:
            raise UnsupportedShape(f"duplicate view output {item.name!r}")
        seen.add(lowered)
        compiled.outputs[item.text] = item.name
        if isinstance(item.expr, FuncCall) and is_aggregate_name(item.expr.name):
            compiled.aggregate_outputs[item.text] = item.name
    return compiled
