"""Federated planning: decomposition, pushdown maximization, bind joins,
assembly-site selection, eager aggregation.

The planner consumes an already-optimized logical plan whose scans reference
global table names and produces a `FederatedPlan`: the same tree with every
maximal single-source pushable subtree replaced by a `LogicalFetch`
(component query), joins against binding-pattern sources converted to
`LogicalBindJoin`, and an assembly site chosen to minimize simulated
transfer cost; then one input of a hub join under a GROUP BY is
pre-aggregated by its join key where that ships fewer rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.common.errors import PlanError
from repro.engine.cost import CostModel, PlanCost
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
)
from repro.engine.planner import bind_select
from repro.engine.rewrite import eager_aggregate, optimize_logical
from repro.federation.catalog import FederationCatalog
from repro.federation.nodes import DEFAULT_MAX_INLIST, LogicalBindJoin, LogicalFetch
from repro.netsim.network import NetworkModel
from repro.sql.ast import (
    ColumnRef,
    Expr,
    InList,
    JoinClause,
    OrderItem,
    Select,
    SelectItem,
    TableRef,
    UnionSelect,
)
from repro.sql.exprutil import (
    conjoin,
    equi_join_sides,
    split_conjuncts,
    substitute_columns,
)
from repro.sql.parser import parse
from repro.sql.shape import lift, plant
from repro.wrappers.pushability import binding_supplier, statement_reasons


@dataclass(frozen=True)
class FederatedPlan:
    """Output of federated planning, ready for the federated executor: a
    value, like its nodes, since the plan cache hands it to every caller."""

    root: LogicalPlan
    fetches: tuple
    bind_joins: tuple
    assembly_site: str
    est_result_rows: float = 0.0
    est_result_bytes: int = 0
    #: the constants of the statement it is the plan of, one per `Param` in it
    #: (`repro.sql.shape.plant`): what `pretty` shows by default and
    #: `execute_plan` runs with. The plan cache's shared plan holds its
    #: planning statement's; a query runs it with its own, and
    #: `FederatedEngine.prepare` gives each statement a plan holding its own.
    values: tuple = ()
    #: the `CostModel.slot_reads` of `values`: the plan serves every values tuple
    #: of equal reads, estimates and all
    reads: tuple = ()
    #: the estimated cost of `root`, the assembly work (None: not estimated)
    est_cost: Optional[float] = None

    def pretty(self, values: Optional[tuple] = None) -> str:
        """The plan, each `Param` shown as its constant in `values` (by default
        the plan's own)."""
        values = self.values if values is None else values
        return f"assembly site: {self.assembly_site}\n{self.root.pretty(values=values)}"

    def table_dependencies(self) -> frozenset:
        """Lower-cased names of every source table this plan reads.

        The union of per-fetch/bind-join dependency tags (plus any residual
        scans); the cache hierarchy tags result entries with this set so a
        write to any underlying table invalidates them.
        """
        tags: set = set()
        for node in self.root.walk():
            if isinstance(node, (LogicalFetch, LogicalBindJoin)):
                tags |= node.depends_on
            elif isinstance(node, LogicalScan):
                tags.add(node.table_name.lower())
        return frozenset(tags)


def _distinct(est: PlanCost, key: ColumnRef) -> float:
    """Distinct values of `key` in a subtree estimated at `est`, at most its
    rows (its rows when the column has no statistics)."""
    stat = est.stat_for(key)
    return est.rows if stat is None else min(float(stat.distinct), est.rows)


def _remote_nodes(root: LogicalPlan) -> tuple:
    """``(fetches, bind joins)`` of a cut plan, in walk order."""
    nodes = list(root.walk())
    return (
        tuple([node for node in nodes if isinstance(node, LogicalFetch)]),
        tuple([node for node in nodes if isinstance(node, LogicalBindJoin)]),
    )


@dataclass
class _Info:
    """Per-subtree pushability analysis."""

    sources: frozenset
    pushable: bool
    #: scan binding -> bound column name, for scans still needing key bindings
    unbound: dict = field(default_factory=dict)

    @property
    def single_source(self) -> Optional[str]:
        if len(self.sources) == 1:
            return next(iter(self.sources))
        return None


class FederatedPlanner:
    """Builds `FederatedPlan`s over a `FederationCatalog`.

    `semijoin` controls join-key shipping between remote inputs:
    "auto" (cost-based), "force" (whenever legal) or "off". The planner
    always uses bind joins for binding-pattern sources regardless — there is
    no other access path.
    """

    def __init__(
        self,
        catalog: FederationCatalog,
        network: Optional[NetworkModel] = None,
        semijoin: str = "auto",
        max_inlist: int = DEFAULT_MAX_INLIST,
        max_bind_keys: int = 2000,
        hub_site: str = "hub",
        choose_assembly_site: bool = True,
        join_dp_limit: Optional[int] = None,
    ):
        if semijoin not in ("auto", "force", "off"):
            raise PlanError(f"unknown semijoin mode {semijoin!r}")
        self.catalog = catalog
        self.network = network or NetworkModel()
        self.semijoin = semijoin
        self.max_inlist = max_inlist
        self.max_bind_keys = max_bind_keys
        self.hub_site = hub_site
        self.choose_assembly_site = choose_assembly_site
        #: largest join region searched exhaustively (None = joinorder's
        #: DP_LIMIT); lower it to force the greedy path on smaller queries
        self.join_dp_limit = join_dp_limit
        self.cost_model = CostModel(catalog)

    # -- public ----------------------------------------------------------------

    def plan(self, query: Union[str, Select, LogicalPlan]) -> FederatedPlan:
        """The plan of `query`; a SELECT's is prepared (`plant`): it holds a
        `Param` in each slot, and serves every statement of its shape and reads."""
        if isinstance(query, str):
            query = parse(query)
        values = reads = ()
        if isinstance(query, Select):
            reads = self.cost_model.slot_reads(query)
            values = lift(query).values
            query = plant(query)
        # Estimating reads the constants (`CostModel._comparison_selectivity`).
        # One memo scope for the whole cutting pass: subtree estimates are
        # re-requested by pushability analysis, bind-join costing and the
        # final plan estimate.
        with self.cost_model.memo_scope(values):
            logical = self.logical_plan(query)
            subtrees: dict = {}
            root = self._cut(logical, subtrees)
            # Pre-aggregation shrinks what a fetch ships, not where the plan
            # assembles: the site is chosen for the plan as cut (a grouped
            # fetch still reads its whole input at the source).
            est = self.cost_model.estimate(root)
            site = self._choose_site(
                _remote_nodes(root)[0], int(est.rows * root.schema.average_row_width())
            )
            # After `_cut`, so the rule sees only joins that stay joins.
            root = eager_aggregate(root, self.cost_model, lambda x, group: self._place(x, group, subtrees))
            self._check_access_paths(root)
            fetches, bind_joins = _remote_nodes(root)
            est = self.cost_model.estimate(root)
        est_bytes = int(est.rows * root.schema.average_row_width())
        return FederatedPlan(root, fetches, bind_joins, site, est.rows, est_bytes, values, reads, est.cost)

    def logical_plan(self, query: Union[str, Select, LogicalPlan]) -> LogicalPlan:
        if isinstance(query, str):
            query = parse(query)
        if not isinstance(query, LogicalPlan):
            if not isinstance(query, (Select, UnionSelect)):
                raise PlanError("federated queries must be SELECT statements")
            query = bind_select(query, self.catalog)
            if self.catalog.definitions:  # a mediated name stands for its query
                query = self.catalog.unfold(query)
        return optimize_logical(
            query, self.cost_model, join_dp_limit=self.join_dp_limit
        )

    # -- pushability analysis -----------------------------------------------------

    def _analyze(self, node: LogicalPlan) -> _Info:
        if isinstance(node, LogicalScan):
            entry = self.catalog.entry(node.table_name)
            required = entry.source.capabilities.required_binding(entry.local_name)
            unbound = {node.binding.lower(): required} if required else {}
            return _Info(frozenset({entry.source.name}), True, unbound)

        if isinstance(node, (LogicalFetch, LogicalBindJoin)):
            return _Info(frozenset(), False)

        infos = [self._analyze(child) for child in node.children]
        sources = frozenset().union(*(info.sources for info in infos)) if infos else frozenset()
        unbound: dict = {}
        for info in infos:
            unbound.update(info.unbound)
        children_pushable = all(info.pushable for info in infos)
        single = next(iter(sources)) if len(sources) == 1 else None

        if not children_pushable or single is None:
            return _Info(sources, False, unbound)

        source = self.catalog.sources[single]
        if isinstance(node, LogicalFilter):
            remaining_unbound = dict(unbound)
            others = []
            for conjunct in split_conjuncts(node.predicate):
                binding = _binding_satisfied(conjunct, remaining_unbound)
                if binding is not None:
                    del remaining_unbound[binding]
                else:
                    others.append(conjunct)
            ok = not others or _fits(source, Select((), where=conjoin(others)))
            return _Info(sources, ok, remaining_unbound)

        clause = _clause(node)  # None: a union, or a node unknown here
        return _Info(sources, clause is not None and _fits(source, clause), unbound)

    # -- cutting ---------------------------------------------------------------------

    def _cut(self, node: LogicalPlan, subtrees: dict) -> LogicalPlan:
        """`node` with every maximal single-source pushable subtree a fetch
        (`subtrees` gets each: ``id(fetch) -> subtree``) and its joins
        against remote inputs bind joins where required or paying."""
        info = self._analyze(node)
        if info.pushable and info.single_source is not None and not info.unbound:
            return self._make_fetch(node, info.single_source, subtrees)
        if isinstance(node, LogicalFilter):
            split = self._cut_filter_partially(node, subtrees)
            if split is not None:
                return split
        children = [self._cut(child, subtrees) for child in node.children]
        rebuilt = node.with_children(children) if children else node
        if isinstance(rebuilt, LogicalJoin):
            converted = self._try_bind_join(rebuilt)
            if converted is not None:
                return converted
        return rebuilt

    def _cut_filter_partially(
        self, node: LogicalFilter, subtrees: dict
    ) -> Optional[LogicalPlan]:
        """Push the pushable conjuncts of a mixed filter, keep the rest local.

        This is the partial-pushdown behavior a quirk-aware wrapper enables
        (Draper §5): `price > 10 AND name LIKE '%x%'` over a dialect without
        LIKE still ships only the `price > 10` survivors.
        """
        child_info = self._analyze(node.child)
        source_name = child_info.single_source
        if not child_info.pushable or source_name is None:
            return None
        source = self.catalog.sources[source_name]
        remaining_unbound = dict(child_info.unbound)
        pushable: list[Expr] = []
        stuck: list[Expr] = []
        for conjunct in split_conjuncts(node.predicate):
            binding = _binding_satisfied(conjunct, remaining_unbound)
            if binding is not None:
                del remaining_unbound[binding]
                pushable.append(conjunct)
            elif _fits(source, Select((), where=conjunct)):
                pushable.append(conjunct)
            else:
                stuck.append(conjunct)
        if not pushable or not stuck or remaining_unbound:
            return None
        inner = LogicalFilter(node.child, conjoin(pushable))
        fetch = self._make_fetch(inner, source_name, subtrees)
        return LogicalFilter(fetch, conjoin(stuck))

    def _make_fetch(
        self, subtree: LogicalPlan, source_name: str, subtrees: dict
    ) -> LogicalFetch:
        stmt = plan_to_select(subtree, self.catalog)
        est = self.cost_model.estimate(subtree)
        source = self.catalog.sources[source_name]
        fetch = LogicalFetch(
            stmt,
            source,
            subtree.schema,
            est.rows,
            est,
            depends_on=self._dependencies_of(subtree),
            tables=self._global_tables_of(subtree),
        )
        subtrees[id(fetch)] = subtree
        return fetch

    def _dependencies_of(self, subtree: LogicalPlan) -> frozenset:
        """Cache-invalidation tags for a pushable subtree.

        Both the global and the source-local spelling of each scanned table
        are included, so change events keyed either way (the mediator
        publishes global names, `ChangeNotifier.watch_database` local ones)
        hit the same entries.
        """
        tags: set = set()
        for node in subtree.walk():
            if isinstance(node, LogicalScan):
                tags.add(node.table_name.lower())
                tags.add(self.catalog.entry(node.table_name).local_name.lower())
        return frozenset(tags)

    def _global_tables_of(self, subtree: LogicalPlan) -> frozenset:
        """Lower-cased *global* names of the tables a pushable subtree reads.

        Replica failover keys on these: the catalog finds alternate sources
        covering every global table, and the component query is rewritten
        from the primary's local names to the replica's.
        """
        return frozenset(
            node.table_name.lower()
            for node in subtree.walk()
            if isinstance(node, LogicalScan)
        )

    # -- bind joins --------------------------------------------------------------------

    def _try_bind_join(self, join: LogicalJoin) -> Optional[LogicalPlan]:
        """Convert `join` to a bind join when required or beneficial."""
        if join.condition is None:
            return None

        # Case 1 (required): the right side is an unbound binding-pattern
        # subtree — the only access path is key-driven lookup. Filters the
        # service cannot evaluate are peeled into bind-join residuals.
        core, peeled = _peel_filters(join.right)
        core_info = self._analyze(core)
        if core_info.pushable and core_info.unbound and core_info.single_source:
            return self._build_bind_join(
                join, required=True, right_core=core, extra_residual=peeled
            )
        if join.kind == "INNER":
            # An unbound source on the LEFT of an inner join: commute first.
            left_core, left_peeled = _peel_filters(join.left)
            left_info = self._analyze(left_core)
            if left_info.pushable and left_info.unbound and left_info.single_source:
                mirrored = LogicalJoin(join.right, join.left, "INNER", join.condition)
                return self._build_bind_join(
                    mirrored,
                    required=True,
                    right_core=left_core,
                    extra_residual=left_peeled,
                )

        # Case 2 (optimization): both sides remote; ship keys instead of rows.
        # A LEFT join is driven from its preserved side: every right row that
        # can match carries one of the left's keys.
        if self.semijoin == "off" or join.kind not in ("INNER", "LEFT"):
            return None
        if (
            join.kind == "INNER"
            and isinstance(join.left, LogicalFetch)
            and isinstance(join.right, LogicalFetch)
            and join.left.est_rows > join.right.est_rows
            and _fits(join.left.source, _PROBE)
        ):
            # Drive the probe from the smaller side: mirror the join.
            join = LogicalJoin(join.right, join.left, "INNER", join.condition)
        if not isinstance(join.right, LogicalFetch):
            return None
        if not _fits(join.right.source, _PROBE):
            return None
        return self._build_bind_join(join, required=False)

    def _build_bind_join(
        self,
        join: LogicalJoin,
        required: bool,
        right_core: Optional[LogicalPlan] = None,
        extra_residual: Optional[list] = None,
    ) -> Optional[LogicalPlan]:
        right = right_core if right_core is not None else join.right
        right_quals = {
            (column.qualifier or "").lower() for column in right.schema
        }
        equi_pair = None
        residual: list[Expr] = list(extra_residual or [])
        for conjunct in split_conjuncts(join.condition):
            sides = equi_join_sides(conjunct)
            if sides is not None and equi_pair is None:
                a, b = sides
                if (a.qualifier or "").lower() in right_quals:
                    a, b = b, a
                if (
                    join.left.schema.has(a.name, a.qualifier)
                    and right.schema.has(b.name, b.qualifier)
                ):
                    equi_pair = (a, b)
                    continue
            residual.append(conjunct)
        if equi_pair is None:
            if required:
                raise PlanError(
                    f"binding-pattern source needs an equi-join key: {join.label(self.cost_model.values)}"
                )
            return None
        left_key, right_key = equi_pair
        probed = self.cost_model.estimate(right)
        if not required and self.semijoin == "auto":
            # Bind when the keys are few enough to ship and cut the right
            # side's key domain by more than 1.5x (the per-chunk overhead).
            keys = _distinct(self.cost_model.estimate(join.left), left_key)
            if keys > self.max_bind_keys or keys * 1.5 >= _distinct(probed, right_key):
                return None

        if isinstance(right, LogicalFetch):
            template = right.stmt
            source = right.source
            depends_on = right.depends_on
            tables = right.tables
        else:
            info = self._analyze(right)
            source = self.catalog.sources[info.single_source]
            template = plan_to_select(right, self.catalog)
            depends_on = self._dependencies_of(right)
            tables = self._global_tables_of(right)
        # For binding-pattern tables the probe must target the bound column.
        bound = source.capabilities.required_binding(
            template.from_tables[0].name if template.from_tables else ""
        )
        probe_ref = ColumnRef(right_key.name, right_key.qualifier)
        if bound is not None and right_key.name.lower() != bound.lower():
            raise PlanError(
                f"source {source.name!r} requires binding on {bound!r}, "
                f"but the join key is {right_key}"
            )
        return LogicalBindJoin(
            left=join.left,
            template=template,
            source=source,
            fetch_schema=right.schema,
            left_key=left_key,
            right_key=probe_ref,
            kind=join.kind,
            residual=conjoin(residual),
            max_inlist=self.max_inlist,
            est_rows=probed.rows,
            depends_on=depends_on,
            tables=tables,
            required=required,
            est=probed,
        )

    # -- eager aggregation -----------------------------------------------------------

    def _place(self, x: LogicalPlan, group, subtrees: dict) -> LogicalPlan:
        """The partial `group` makes for join input `x`: a fetch's runs in it
        when its source can aggregate (`_cut` of the grouped subtree the
        fetch replaced), anything else's at the hub."""
        subtree = subtrees.get(id(x)) if isinstance(x, LogicalFetch) else None
        return group(x) if subtree is None else self._cut(group(subtree), subtrees)

    # -- validation -----------------------------------------------------------------

    def _check_access_paths(self, root: LogicalPlan) -> None:
        for node in root.walk():
            if isinstance(node, LogicalScan):
                entry = self.catalog.entry(node.table_name)
                required = entry.source.capabilities.required_binding(entry.local_name)
                if required:
                    raise PlanError(
                        f"no access path: table {node.table_name!r} requires a "
                        f"binding on {required!r} and no join supplies one"
                    )

    # -- assembly site ----------------------------------------------------------------

    def _choose_site(self, fetches: list, est_result_bytes: int) -> str:
        if not self.choose_assembly_site or not fetches:
            return self.hub_site
        candidates = {self.hub_site}
        for fetch in fetches:
            candidates.add(fetch.source.name)
        best_site = self.hub_site
        best_cost = None
        for site in sorted(candidates):
            cost = 0.0
            for fetch in fetches:
                size = int(fetch.est_rows * fetch.schema.average_row_width())
                cost += self.network.transfer_seconds(
                    fetch.source.name,
                    site,
                    size,
                    fetch.source.capabilities.wire_format,
                )
            cost += self.network.transfer_seconds(site, "client", est_result_bytes)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_site = site
        return best_site


# ---------------------------------------------------------------------------
# Logical subtree -> component SELECT
# ---------------------------------------------------------------------------


def plan_to_select(plan: LogicalPlan, catalog: FederationCatalog) -> Select:
    """Convert a pushable subtree back into a SELECT over local table names.

    Only the SQL-shaped stacks our own optimizer emits are supported:
    Project? Limit? Sort? Distinct? Project? (Filter(Aggregate))? Aggregate?
    Filter* over a join tree of scans (narrowing bare-column projects are
    skipped). A Project over Limit or Sort is the binder's trim of hidden
    sort columns: they become ORDER BY expressions.
    """
    node = plan
    limit = None
    order_items: tuple = ()
    distinct = False
    shown = None
    if isinstance(node, LogicalProject) and isinstance(node.child, (LogicalLimit, LogicalSort)):
        shown, node = len(node.items), node.child

    if isinstance(node, LogicalLimit):
        limit = node.limit
        node = node.child
    if isinstance(node, LogicalSort):
        order_items = node.order_items
        node = node.child
    if isinstance(node, LogicalDistinct):
        distinct = True
        node = node.child
        if isinstance(node, LogicalSort) and not order_items:
            order_items = node.order_items
            node = node.child

    items: Optional[tuple] = None
    if isinstance(node, LogicalProject):
        items = node.items
        node = node.child

    having: Optional[Expr] = None
    pre_having_filter = None
    if isinstance(node, LogicalFilter) and isinstance(node.child, LogicalAggregate):
        pre_having_filter = node.predicate
        node = node.child

    group_by: tuple = ()
    if isinstance(node, LogicalAggregate):
        aggregate = node
        group_by = aggregate.group_exprs
        # Build the reverse mapping from aggregate-output names to the
        # expressions that produce them, then substitute it back into the
        # projection, HAVING and ORDER BY.
        reverse: dict = {}
        for expr, name in zip(aggregate.group_exprs, aggregate.group_names):
            reverse[("", name.lower())] = expr
        for call, name in zip(aggregate.aggregates, aggregate.agg_names):
            reverse[("", name.lower())] = call
        if items is None:
            items = tuple(
                SelectItem(ColumnRef(column.name), None)
                for column in aggregate.schema
            )
        items = tuple(
            SelectItem(substitute_columns(item.expr, reverse), item.output_name)
            for item in items
        )
        if pre_having_filter is not None:
            having = substitute_columns(pre_having_filter, reverse)
        order_items = tuple(
            OrderItem(substitute_columns(item.expr, reverse), item.ascending)
            for item in order_items
        )
        node = aggregate.child
    elif pre_having_filter is not None:  # pragma: no cover - defensive
        raise PlanError("filter over non-aggregate in component conversion")

    where_conjuncts: list[Expr] = []
    while isinstance(node, LogicalFilter):
        where_conjuncts.extend(split_conjuncts(node.predicate))
        node = node.child

    from_tables, joins, join_where = _collect_from(node, catalog)
    where_conjuncts.extend(join_where)

    if items is None:
        items = tuple(
            SelectItem(ColumnRef(column.name, column.qualifier))
            for column in plan.schema
        )
    if shown is not None:
        hidden = {("", item.output_name.lower()): item.expr for item in items[shown:]}
        order_items = tuple(
            OrderItem(substitute_columns(item.expr, hidden), item.ascending)
            for item in order_items
        )
        items = items[:shown]

    return Select(
        items=tuple(items),
        from_tables=tuple(from_tables),
        joins=tuple(joins),
        where=conjoin(where_conjuncts),
        group_by=tuple(group_by),
        having=having,
        order_by=tuple(order_items),
        limit=limit,
        distinct=distinct,
    )


def _collect_from(node: LogicalPlan, catalog: FederationCatalog):
    """Flatten a join tree into FROM tables, JOIN clauses and WHERE conjuncts."""
    if isinstance(node, LogicalScan):
        local = catalog.entry(node.table_name).local_name
        alias = None if node.binding.lower() == local.lower() else node.binding
        return [TableRef(local, alias or node.binding)], [], []
    if isinstance(node, LogicalProject):
        # Narrowing projects inserted by pruning carry only bare columns.
        if all(isinstance(item.expr, ColumnRef) for item in node.items):
            return _collect_from(node.child, catalog)
        raise PlanError(f"cannot convert computed mid-plan projection: {node.label()}")
    if isinstance(node, LogicalFilter):
        tables, joins, where = _collect_from(node.child, catalog)
        return tables, joins, where + split_conjuncts(node.predicate)
    if isinstance(node, LogicalJoin):
        left_tables, left_joins, left_where = _collect_from(node.left, catalog)
        if node.kind == "INNER":
            right_tables, right_joins, right_where = _collect_from(node.right, catalog)
            where = left_where + right_where
            if node.condition is not None:
                where.extend(split_conjuncts(node.condition))
            return left_tables + right_tables, left_joins + right_joins, where
        # LEFT join: the right side must be a plain scan (or narrowed scan).
        right = node.right
        while isinstance(right, LogicalProject) and all(
            isinstance(item.expr, ColumnRef) for item in right.items
        ):
            right = right.child
        if not isinstance(right, LogicalScan):
            raise PlanError("LEFT join right side must be a base table to push")
        local = catalog.entry(right.table_name).local_name
        clause = JoinClause(TableRef(local, right.binding), "LEFT", node.condition)
        return left_tables, left_joins + [clause], left_where
    raise PlanError(f"cannot convert {node.label()} into a component query")


def _peel_filters(plan: LogicalPlan):
    """Strip Filter (and narrowing Project) layers, returning (core, predicates).

    Used to expose an unbound binding-pattern scan under mediator-side
    filters so the filters can become bind-join residuals.
    """
    peeled: list[Expr] = []
    node = plan
    while True:
        if isinstance(node, LogicalFilter):
            peeled.extend(split_conjuncts(node.predicate))
            node = node.child
            continue
        if isinstance(node, LogicalProject) and all(
            isinstance(item.expr, ColumnRef) for item in node.items
        ):
            node = node.child
            continue
        break
    return node, peeled


def _binding_satisfied(conjunct: Expr, unbound: dict) -> Optional[str]:
    """If `conjunct` supplies literal keys for an unbound scan, return its binding."""
    supplied = binding_supplier(conjunct)
    if supplied is not None:
        column = supplied[0]
        binding = (column.qualifier or "").lower()
        if unbound.get(binding, object()) == column.name.lower():
            return binding
    return None


def _fits(source, clause: Select) -> bool:
    """Whether the capability contract lets `source` be sent a component
    statement holding `clause`."""
    return not statement_reasons(clause, source.capabilities)


#: the `key IN (...)` a bind join adds to the statement it probes with
_PROBE = Select((), where=InList(ColumnRef("key"), ()))
#: a table of no name, named twice by a join's clause: the contract counts tables
_OTHER = TableRef("")


def _clause(node: LogicalPlan) -> Optional[Select]:
    """What `node` adds to the component statement of its pushed children,
    as a statement the capability contract reads; None for a node no
    component statement holds."""
    if isinstance(node, LogicalProject):
        return Select(tuple(node.items))
    if isinstance(node, LogicalJoin):
        return Select((), (_OTHER, _OTHER), where=node.condition)
    if isinstance(node, LogicalAggregate):
        items = tuple(SelectItem(call) for call in node.aggregates)
        return Select(items, group_by=tuple(node.group_exprs))
    if isinstance(node, LogicalSort):
        return Select((), order_by=tuple(node.order_items))
    if isinstance(node, LogicalLimit):
        return Select((), limit=node.limit)
    if isinstance(node, LogicalDistinct):
        return Select((), distinct=True)
    return None
