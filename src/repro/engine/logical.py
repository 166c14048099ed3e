"""Logical relational algebra.

Nodes carry their output `RelSchema` so rewrites can be validated locally.
Plans are trees of immutable-by-convention nodes; rewrites construct new
nodes via each node's `with_children`.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.common.schema import Column, RelSchema
from repro.common.types import DataType
from repro.sql.ast import BinaryOp, ColumnRef, Expr, FuncCall, OrderItem, Select, SelectItem
from repro.sql.shape import rebind, rebind_select


class LogicalPlan:
    """Base class: every node has `children`, `schema` and `with_children`."""

    schema: RelSchema

    @property
    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        if children:
            raise PlanError(f"{type(self).__name__} takes no children")
        return self

    def label(self) -> str:
        return type(self).__name__.replace("Logical", "")

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class LogicalScan(LogicalPlan):
    """Scan of a named base table under a binding (alias)."""

    def __init__(self, table_name: str, binding: str, schema: RelSchema):
        self.table_name = table_name
        self.binding = binding
        self.schema = schema.with_qualifier(binding)

    def label(self):
        if self.binding != self.table_name:
            return f"Scan({self.table_name} AS {self.binding})"
        return f"Scan({self.table_name})"


class LogicalFilter(LogicalPlan):
    def __init__(self, child: LogicalPlan, predicate: Expr):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return LogicalFilter(child, self.predicate)

    def label(self):
        return f"Filter({self.predicate})"


class LogicalProject(LogicalPlan):
    """Projection with computed expressions and output aliases.

    The output schema is unqualified: each output column is named by the
    item's `output_name`. Types are inferred only for plain column refs;
    computed expressions are typed ANY (sufficient for execution, and the
    optimizer does not rely on projected types).
    """

    def __init__(self, child: LogicalPlan, items: Sequence[SelectItem]):
        self.child = child
        self.items = tuple(items)
        columns = []
        for item in self.items:
            dtype = DataType.ANY
            qualifier = None
            if isinstance(item.expr, ColumnRef):
                try:
                    dtype = child.schema.column(
                        item.expr.name, item.expr.qualifier
                    ).dtype
                except Exception:  # unresolved here; binder validates upstream
                    dtype = DataType.ANY
                if item.alias is None:
                    # Bare column projections keep their qualifier so SELECT *
                    # over a join does not produce colliding output names.
                    qualifier = item.expr.qualifier
            columns.append(Column(item.output_name, dtype, qualifier))
        self.schema = RelSchema(columns)

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return LogicalProject(child, self.items)

    def label(self):
        return f"Project({', '.join(str(item) for item in self.items)})"


class LogicalJoin(LogicalPlan):
    """Inner or left join; `condition` of None means cross join."""

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        kind: str = "INNER",
        condition: Optional[Expr] = None,
    ):
        if kind not in ("INNER", "LEFT"):
            raise PlanError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.kind = kind
        self.condition = condition
        self.schema = left.schema.concat(right.schema)

    @property
    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return LogicalJoin(left, right, self.kind, self.condition)

    def label(self):
        on = f" ON {self.condition}" if self.condition is not None else ""
        return f"{self.kind.title()}Join{on}"


class LogicalAggregate(LogicalPlan):
    """Hash aggregation.

    Output schema: one column per group expression (named by `group_names`)
    followed by one column per aggregate call (named by `agg_names`). The
    binder rewrites post-aggregation expressions to reference these names.
    """

    def __init__(
        self,
        child: LogicalPlan,
        group_exprs: Sequence[Expr],
        group_names: Sequence[str],
        aggregates: Sequence[FuncCall],
        agg_names: Sequence[str],
    ):
        if len(group_exprs) != len(group_names):
            raise PlanError("group expr/name arity mismatch")
        if len(aggregates) != len(agg_names):
            raise PlanError("aggregate expr/name arity mismatch")
        self.child = child
        self.group_exprs = tuple(group_exprs)
        self.group_names = tuple(group_names)
        self.aggregates = tuple(aggregates)
        self.agg_names = tuple(agg_names)
        columns = [Column(name, DataType.ANY) for name in group_names]
        columns += [Column(name, DataType.ANY) for name in agg_names]
        self.schema = RelSchema(columns)

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return LogicalAggregate(
            child, self.group_exprs, self.group_names, self.aggregates, self.agg_names
        )

    def label(self):
        groups = ", ".join(str(g) for g in self.group_exprs)
        aggs = ", ".join(str(a) for a in self.aggregates)
        return f"Aggregate(by [{groups}] compute [{aggs}])"


class LogicalSort(LogicalPlan):
    def __init__(self, child: LogicalPlan, order_items: Sequence[OrderItem]):
        self.child = child
        self.order_items = tuple(order_items)
        self.schema = child.schema

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return LogicalSort(child, self.order_items)

    def label(self):
        return f"Sort({', '.join(str(item) for item in self.order_items)})"


class LogicalLimit(LogicalPlan):
    def __init__(self, child: LogicalPlan, limit: int):
        self.child = child
        self.limit = limit
        self.schema = child.schema

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return LogicalLimit(child, self.limit)

    def label(self):
        return f"Limit({self.limit})"


class LogicalDistinct(LogicalPlan):
    def __init__(self, child: LogicalPlan):
        self.child = child
        self.schema = child.schema

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return LogicalDistinct(child)


class LogicalAlias(LogicalPlan):
    """Expose a subplan's output under a new table binding.

    Used by GAV view unfolding: a scan of virtual table `v AS b` becomes
    `Alias(b, <definition plan>)`, whose schema re-qualifies every output
    column with `b`. Execution is a free relabel.
    """

    def __init__(self, child: LogicalPlan, binding: str):
        self.child = child
        self.binding = binding
        self.schema = RelSchema(
            Column(column.name, column.dtype, binding) for column in child.schema
        )

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return LogicalAlias(child, self.binding)

    def label(self):
        return f"Alias({self.binding})"


class LogicalUnion(LogicalPlan):
    """Bag UNION ALL of schema-compatible children (width must match)."""

    def __init__(self, inputs: Sequence[LogicalPlan]):
        if not inputs:
            raise PlanError("union of zero inputs")
        widths = {len(child.schema) for child in inputs}
        if len(widths) != 1:
            raise PlanError(f"union inputs have differing widths {widths}")
        self.inputs = tuple(inputs)
        self.schema = inputs[0].schema

    @property
    def children(self):
        return self.inputs

    def with_children(self, children):
        return LogicalUnion(tuple(children))

    def label(self):
        return f"UnionAll({len(self.inputs)})"


def rebind_plan(plan: LogicalPlan, swap: dict, found: set) -> LogicalPlan:
    """`plan` for other constants in its statement's slots (`swap`, `found`: see
    `repro.sql.shape.rebind`). A node's predicates, component statements and
    children are rebound (not a union's inputs: no statement that lifts has
    one); only a changed node and the path above it are copied, schema and all."""
    changed = {}
    for name, old in vars(plan).items():
        if isinstance(old, LogicalPlan):
            new = rebind_plan(old, swap, found)
        elif old.__class__ is BinaryOp:
            new = rebind(old, swap, found)
        elif old.__class__ is Select:
            new = rebind_select(old, swap, found)
        else:
            continue
        if new is not old:
            changed[name] = new
    if not changed:
        return plan
    bound = copy.copy(plan)
    vars(bound).update(changed)
    return bound
