"""Logical relational algebra.

Nodes carry their output `RelSchema` so rewrites can be validated locally.
A plan is a value: every node is a frozen dataclass, so assigning to one
after construction raises `dataclasses.FrozenInstanceError` and the plan
cache can hand one tree to every caller thread. Rewrites build new nodes via
`with_children` (or `dataclasses.replace`); a node derives its `schema` once,
in `__post_init__`. Nodes compare and hash by identity (`eq=False`): the
execution's per-node memo and the trace key them by node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.common.schema import Column, RelSchema
from repro.common.types import DataType
from repro.sql.ast import ColumnRef, Expr, FuncCall, OrderItem, SelectItem
from repro.sql.exprutil import printed

#: how a node sets what it derives: a frozen dataclass refuses `self.x = ...`
_set = object.__setattr__


class LogicalPlan:
    """Base class: every node has `children`, `schema` and `with_children`,
    the first and last read from `child_fields`, the names of the fields that
    hold the node's inputs."""

    schema: RelSchema
    child_fields: ClassVar[Tuple[str, ...]] = ()
    #: whether the node joins its children on a `condition`: a join region
    #: (`repro.engine.rewrite.eager_aggregate`) runs through it
    joins: ClassVar[bool] = False

    @property
    def children(self) -> tuple["LogicalPlan", ...]:
        return tuple([getattr(self, name) for name in self.child_fields])

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        names = self.child_fields
        if len(children) != len(names):
            raise PlanError(f"{type(self).__name__} takes {len(names)} children, not {len(children)}")
        if not names:
            return self
        return replace(self, **dict(zip(names, children)))  # type: ignore[type-var]

    def label(self, values: tuple = ()) -> str:
        """The node printed, each `Param` its constant in `values`."""
        return type(self).__name__.replace("Logical", "")

    def pretty(self, indent: int = 0, values: tuple = ()) -> str:
        lines = ["  " * indent + self.label(values)]
        for child in self.children:
            lines.append(child.pretty(indent + 1, values))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True, eq=False)
class LogicalScan(LogicalPlan):
    """Scan of a named base table under a binding (alias)."""

    table_name: str
    binding: str
    schema: RelSchema

    def __post_init__(self):
        _set(self, "schema", self.schema.with_qualifier(self.binding))

    def label(self, values=()):
        if self.binding != self.table_name:
            return f"Scan({self.table_name} AS {self.binding})"
        return f"Scan({self.table_name})"


@dataclass(frozen=True, eq=False)
class LogicalFilter(LogicalPlan):
    child: LogicalPlan
    predicate: Expr
    child_fields = ("child",)

    def __post_init__(self):
        _set(self, "schema", self.child.schema)

    def label(self, values=()):
        return f"Filter({printed(self.predicate, values)})"


@dataclass(frozen=True, eq=False)
class LogicalProject(LogicalPlan):
    """Projection with computed expressions and output aliases.

    The output schema is unqualified: each output column is named by the
    item's `output_name`. Types are inferred only for plain column refs;
    computed expressions are typed ANY (sufficient for execution, and the
    optimizer does not rely on projected types).
    """

    child: LogicalPlan
    items: Sequence[SelectItem]
    child_fields = ("child",)

    def __post_init__(self):
        _set(self, "items", tuple(self.items))
        columns = []
        for item in self.items:
            dtype = DataType.ANY
            qualifier = None
            if isinstance(item.expr, ColumnRef):
                try:
                    dtype = self.child.schema.column(
                        item.expr.name, item.expr.qualifier
                    ).dtype
                except Exception:  # unresolved here; binder validates upstream
                    dtype = DataType.ANY
                if item.alias is None:
                    # Bare column projections keep their qualifier so SELECT *
                    # over a join does not produce colliding output names.
                    qualifier = item.expr.qualifier
            columns.append(Column(item.output_name, dtype, qualifier))
        _set(self, "schema", RelSchema(columns))

    def label(self, values=()):
        return f"Project({', '.join(str(item) for item in self.items)})"


@dataclass(frozen=True, eq=False)
class LogicalJoin(LogicalPlan):
    """Inner or left join; `condition` of None means cross join."""

    left: LogicalPlan
    right: LogicalPlan
    kind: str = "INNER"
    condition: Optional[Expr] = None
    child_fields = ("left", "right")
    joins = True

    def __post_init__(self):
        if self.kind not in ("INNER", "LEFT"):
            raise PlanError(f"unsupported join kind {self.kind!r}")
        _set(self, "schema", self.left.schema.concat(self.right.schema))

    def label(self, values=()):
        on = f" ON {printed(self.condition, values)}" if self.condition is not None else ""
        return f"{self.kind.title()}Join{on}"


@dataclass(frozen=True, eq=False)
class LogicalAggregate(LogicalPlan):
    """Hash aggregation.

    Output schema: one column per group expression (named by `group_names`)
    followed by one column per aggregate call (named by `agg_names`). The
    binder rewrites post-aggregation expressions to reference these names.
    """

    child: LogicalPlan
    group_exprs: Sequence[Expr]
    group_names: Sequence[str]
    aggregates: Sequence[FuncCall]
    agg_names: Sequence[str]
    child_fields = ("child",)

    def __post_init__(self):
        if len(self.group_exprs) != len(self.group_names):
            raise PlanError("group expr/name arity mismatch")
        if len(self.aggregates) != len(self.agg_names):
            raise PlanError("aggregate expr/name arity mismatch")
        for name in ("group_exprs", "group_names", "aggregates", "agg_names"):
            _set(self, name, tuple(getattr(self, name)))
        names = self.group_names + self.agg_names
        _set(self, "schema", RelSchema(Column(name, DataType.ANY) for name in names))

    def label(self, values=()):
        groups = ", ".join(str(g) for g in self.group_exprs)
        aggs = ", ".join(str(a) for a in self.aggregates)
        return f"Aggregate(by [{groups}] compute [{aggs}])"


@dataclass(frozen=True, eq=False)
class LogicalSort(LogicalPlan):
    child: LogicalPlan
    order_items: Sequence[OrderItem]
    child_fields = ("child",)

    def __post_init__(self):
        _set(self, "order_items", tuple(self.order_items))
        _set(self, "schema", self.child.schema)

    def label(self, values=()):
        return f"Sort({', '.join(str(item) for item in self.order_items)})"


@dataclass(frozen=True, eq=False)
class LogicalLimit(LogicalPlan):
    child: LogicalPlan
    limit: int
    child_fields = ("child",)

    def __post_init__(self):
        _set(self, "schema", self.child.schema)

    def label(self, values=()):
        return f"Limit({self.limit})"


@dataclass(frozen=True, eq=False)
class LogicalDistinct(LogicalPlan):
    child: LogicalPlan
    child_fields = ("child",)

    def __post_init__(self):
        _set(self, "schema", self.child.schema)


@dataclass(frozen=True, eq=False)
class LogicalAlias(LogicalPlan):
    """Expose a subplan's output under a new table binding.

    Used by GAV view unfolding: a scan of virtual table `v AS b` becomes
    `Alias(b, <definition plan>)`, whose schema re-qualifies every output
    column with `b`. Execution is a free relabel.
    """

    child: LogicalPlan
    binding: str
    child_fields = ("child",)

    def __post_init__(self):
        _set(self, "schema", self.child.schema.with_qualifier(self.binding))

    def label(self, values=()):
        return f"Alias({self.binding})"


@dataclass(frozen=True, eq=False)
class LogicalUnion(LogicalPlan):
    """Bag UNION ALL of schema-compatible children (width must match)."""

    inputs: Sequence[LogicalPlan]

    def __post_init__(self):
        if not self.inputs:
            raise PlanError("union of zero inputs")
        widths = {len(child.schema) for child in self.inputs}
        if len(widths) != 1:
            raise PlanError(f"union inputs have differing widths {widths}")
        _set(self, "inputs", tuple(self.inputs))
        _set(self, "schema", self.inputs[0].schema)

    @property
    def children(self):
        return self.inputs

    def with_children(self, children):
        return LogicalUnion(tuple(children))

    def label(self, values=()):
        return f"UnionAll({len(self.inputs)})"
