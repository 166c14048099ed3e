"""Federation-specific plan nodes: remote fetches and bind joins.

Both are logical-plan extension nodes that plug into the shared optimizer
and executor through the `estimate_cost` / `lower_physical` hooks. A node is
a value: the planner (or mid-query re-optimization) builds it, and it is a
frozen dataclass like every logical node, so an assignment to it raises -
the plan cache hands one plan to every caller. What a *run* needs arrives
at lowering time instead — `FetchOp` and
`BindJoinOp` are built per execution and hold that execution's context
(`repro.federation.execution.Execution`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import PlanError
from repro.common.schema import RelSchema
from repro.engine.cost import PlanCost
from repro.engine.logical import LogicalPlan
from repro.engine.physical import Lowered, PhysicalOp, hash_join, join_keys
from repro.sql.ast import BinaryOp, ColumnRef, Expr, Select
from repro.sql.shape import Bound

#: Maximum literals in one generated IN-list; longer key sets are chunked
#: into multiple component queries.
DEFAULT_MAX_INLIST = 200


@dataclass(frozen=True, eq=False)
class LogicalFetch(LogicalPlan):
    """A component query executed at one source, shipped to the assembly site.

    `stmt` is a Select over the source's *local* table names. The node's
    schema is the output schema of the subtree it replaced, so everything
    above it keeps resolving; remote results are re-labeled positionally.
    """

    stmt: Select
    source: Any
    schema: RelSchema
    est_rows: float = 1000.0
    #: full estimate of the replaced subtree (keeps column statistics so
    #: joins above the fetch stay well-estimated at the assembly site)
    est: Optional[PlanCost] = None
    #: lower-cased global+local names of the tables this fetch reads;
    #: cache entries built from it are tagged with these for invalidation
    depends_on: frozenset = frozenset()
    #: lower-cased *global* names only — what replica failover needs to
    #: find alternate sources and rewrite the statement against them
    tables: frozenset = frozenset()

    def label(self, values=()):
        return f"Fetch[{self.source.name}]({Bound(self.stmt, values)})"

    def estimate_cost(self, cost_model) -> PlanCost:
        if self.est is not None:
            return PlanCost(self.est.rows, self.est.rows, self.est.column_stats)
        return PlanCost(self.est_rows, self.est_rows)

    def lower_physical(self, engine, execution=None) -> "FetchOp":
        return FetchOp(self, _required(execution, self))


def _required(execution, node):
    if execution is None:
        raise PlanError(
            f"{type(node).__name__} has no execution context; use FederatedEngine"
        )
    return execution


class FetchOp(PhysicalOp):
    """Physical side of LogicalFetch: hands out the (possibly prefetched)
    relation's batch as it holds it - `Columns` stay unbuilt."""

    def __init__(self, node: LogicalFetch, execution):
        self.node = node
        self.execution = execution
        self.schema = node.schema

    def run(self, values=()):
        return self.execution.fetch(self.node).batch

    def explain_label(self, values=()):
        return self.node.label(values)


@dataclass(frozen=True, eq=False)
class LogicalBindJoin(LogicalPlan):
    """Join where the right side is fetched per batch of left-side keys.

    Executes the left child, collects the distinct values of
    `left_key` from its output, and issues the right-side component query
    with an extra `right_key IN (…)` conjunct (chunked at `max_inlist`).
    This is both the semijoin-reduction tactic of §3 and the only legal
    access path for binding-pattern (web-service) sources.
    """

    left: LogicalPlan
    template: Select
    source: Any
    fetch_schema: RelSchema
    left_key: ColumnRef
    right_key: ColumnRef
    kind: str = "INNER"
    residual: Optional[Expr] = None
    max_inlist: int = DEFAULT_MAX_INLIST
    est_rows: float = 1000.0
    #: table names (lower-cased) the probed side reads, for invalidation
    depends_on: frozenset = frozenset()
    #: lower-cased global names of the probed tables (replica failover)
    tables: frozenset = frozenset()
    #: True when key-driven lookup is the *only* access path (binding
    #: patterns) — mid-query re-optimization must never convert these
    #: to plain fetches
    required: bool = False
    #: full estimate of the probed template, as on `LogicalFetch`
    est: Optional[PlanCost] = None
    child_fields = ("left",)
    joins = True

    def __post_init__(self):
        if self.kind not in ("INNER", "LEFT"):
            raise PlanError(f"bind join does not support kind {self.kind!r}")
        object.__setattr__(self, "schema", self.left.schema.concat(self.fetch_schema))

    @property
    def condition(self) -> Expr:
        """What the join checks: its keys equal, and its residual."""
        keys = BinaryOp("=", self.left_key, self.right_key)
        return keys if self.residual is None else BinaryOp("AND", keys, self.residual)

    def label(self, values=()):
        return (
            f"BindJoin[{self.source.name}]({self.left_key} -> {self.right_key}: "
            f"{Bound(self.template, values)})"
        )

    def estimate_cost(self, cost_model) -> PlanCost:
        left = cost_model.estimate(self.left)
        probed = self.est.column_stats if self.est is not None else {}
        return PlanCost(
            max(left.rows, self.est_rows),
            left.cost + self.est_rows,
            {**left.column_stats, **probed},
        )

    def lower_physical(self, engine, execution=None) -> "BindJoinOp":
        left_physical = engine.lower(self.left, _required(execution, self))
        return BindJoinOp(self, left_physical, execution)


class BindJoinOp(PhysicalOp):
    """Physical bind join: probe the remote source with collected keys.
    Under a plain-column pick it emits only the picked columns, as a hash
    join does (`HashJoinOp.emitting`)."""

    pick: Optional[tuple] = None

    def __init__(self, node: LogicalBindJoin, left: PhysicalOp, execution):
        self.node = node
        self.left = left
        self.execution = execution
        self.schema = node.schema
        self._left_keys = join_keys(
            [left.schema.index_of(node.left_key.name, node.left_key.qualifier)]
        )
        self._right_keys = join_keys(
            [node.fetch_schema.index_of(node.right_key.name, node.right_key.qualifier)]
        )
        self._widths = (len(left.schema), len(node.fetch_schema))
        self._residual = Lowered(node.residual, node.schema)

    @property
    def children(self):
        return (self.left,)

    def emitting(self, positions, schema: RelSchema) -> "BindJoinOp":
        """As `HashJoinOp.emitting`: only the columns at `positions`, as `Columns`."""
        self.pick, self.schema = tuple(positions), schema
        return self

    def run(self, values=()):
        left_rows = self.left.run(values)
        left_keys = self._left_keys(left_rows)
        # the distinct non-NULL keys, in order of first appearance
        keys = [key for key in dict.fromkeys(left_keys) if key is not None]
        fetched = self.execution.bind_fetch(self.node, keys).batch
        return hash_join(
            left_rows, left_keys, fetched, self._right_keys(fetched),
            self.node.kind, self._residual.fn_for(values), self._widths, self.pick,
        )

    def explain_label(self, values=()):
        return self.node.label(values)
