"""Rule-based logical rewrites.

Three classical rules, applied in order by `optimize_logical`:

1. constant folding over every embedded expression,
2. predicate pushdown (filters sink through projects and joins toward scans),
3. projection pruning (narrow scans to the columns the plan actually uses).

Join ordering (`repro.engine.joinorder`) runs between 2 and 3 so that it
sees filters already attached to the right inputs.

A fourth, `eager_aggregate`, runs after them at two sites: `LocalEngine`
(so at every source) and the federated planner, once fetches are cut.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.schema import RelSchema
from repro.engine.logical import (
    LogicalAggregate,
    LogicalAlias,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalUnion,
)
from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Like,
    Literal,
    SelectItem,
    Star,
    UnaryOp,
)
from repro.sql.eval import compile_expr
from repro.sql.exprutil import (
    column_refs,
    conjoin,
    equi_join_sides,
    referenced_qualifiers,
    split_conjuncts,
    substitute_columns,
    transform,
    walk,
)
from repro.sql.functions import is_aggregate_name, propagates_null

_EMPTY_SCHEMA = RelSchema([])


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def fold_constants(expr: Expr) -> Expr:
    """Evaluate literal-only subtrees and simplify boolean identities."""

    def rule(node: Expr) -> Optional[Expr]:
        simplified = _simplify_boolean(node)
        if simplified is not None:
            return simplified
        if _is_foldable(node):
            try:
                value = compile_expr(node, _EMPTY_SCHEMA)(())
            except Exception:
                return None
            return Literal(value)
        return None

    return transform(expr, rule)


def _is_foldable(node: Expr) -> bool:
    if isinstance(node, Literal):
        return False
    if isinstance(node, (ColumnRef, Star)):
        return False
    if isinstance(node, FuncCall) and is_aggregate_name(node.name):
        return False
    children: list[Expr]
    from repro.sql.exprutil import children as expr_children

    children = expr_children(node)
    return bool(children) and all(isinstance(child, Literal) for child in children)


def _simplify_boolean(node: Expr) -> Optional[Expr]:
    if isinstance(node, BinaryOp) and node.op == "AND":
        if node.left == Literal(True):
            return node.right
        if node.right == Literal(True):
            return node.left
        if Literal(False) in (node.left, node.right):
            return Literal(False)
    if isinstance(node, BinaryOp) and node.op == "OR":
        if node.left == Literal(False):
            return node.right
        if node.right == Literal(False):
            return node.left
        if Literal(True) in (node.left, node.right):
            return Literal(True)
    if isinstance(node, UnaryOp) and node.op == "NOT":
        if isinstance(node.operand, Literal) and isinstance(node.operand.value, bool):
            return Literal(not node.operand.value)
        if isinstance(node.operand, UnaryOp) and node.operand.op == "NOT":
            return node.operand.operand
    return None


def fold_plan_constants(plan: LogicalPlan) -> LogicalPlan:
    """Apply `fold_constants` to every expression embedded in the plan."""
    children = [fold_plan_constants(child) for child in plan.children]
    plan = plan.with_children(children) if children else plan
    if isinstance(plan, LogicalFilter):
        return LogicalFilter(plan.child, fold_constants(plan.predicate))
    if isinstance(plan, LogicalJoin) and plan.condition is not None:
        return LogicalJoin(
            plan.left, plan.right, plan.kind, fold_constants(plan.condition)
        )
    if isinstance(plan, LogicalProject):
        items = [
            SelectItem(fold_constants(item.expr), item.alias) for item in plan.items
        ]
        return LogicalProject(plan.child, items)
    return plan


# ---------------------------------------------------------------------------
# Predicate pushdown
# ---------------------------------------------------------------------------


def push_filters(plan: LogicalPlan) -> LogicalPlan:
    """Sink filter conjuncts as close to the scans as legality allows."""
    return _push(plan, [])


def _push(plan: LogicalPlan, pending: list[Expr]) -> LogicalPlan:
    if isinstance(plan, LogicalFilter):
        conjuncts = split_conjuncts(plan.predicate)
        return _push(plan.child, pending + conjuncts)

    if isinstance(plan, LogicalProject):
        pushable: list[Expr] = []
        stuck: list[Expr] = []
        mapping = _project_mapping(plan)
        for conjunct in pending:
            rewritten = substitute_columns(conjunct, mapping)
            refs_ok = all(
                plan.child.schema.has(ref.name, ref.qualifier)
                for ref in column_refs(rewritten)
            )
            if refs_ok and not _has_aggregate(rewritten):
                pushable.append(rewritten)
            else:
                stuck.append(conjunct)
        child = _push(plan.child, pushable)
        rebuilt = LogicalProject(child, plan.items)
        return _wrap_filter(rebuilt, stuck)

    if isinstance(plan, LogicalJoin):
        return _push_join(plan, pending)

    if isinstance(plan, LogicalAggregate):
        pushable = []
        stuck = []
        group_map = {}
        for expr, name in zip(plan.group_exprs, plan.group_names):
            group_map[("", name.lower())] = expr
        for conjunct in pending:
            refs = column_refs(conjunct)
            if refs and all(
                ("", ref.name.lower()) in group_map and ref.qualifier is None
                for ref in refs
            ):
                pushable.append(substitute_columns(conjunct, group_map))
            else:
                stuck.append(conjunct)
        child = _push(plan.child, pushable)
        rebuilt = plan.with_children([child])
        return _wrap_filter(rebuilt, stuck)

    if isinstance(plan, (LogicalSort, LogicalDistinct)):
        child = _push(plan.children[0], pending)
        return plan.with_children([child])

    if isinstance(plan, LogicalAlias):
        # Translate alias-qualified references back to the child's columns.
        mapping = {
            (plan.binding.lower(), child_col.name.lower()): ColumnRef(
                child_col.name, child_col.qualifier
            )
            for child_col in plan.child.schema
        }
        pushable = []
        stuck = []
        for conjunct in pending:
            rewritten = substitute_columns(conjunct, mapping)
            if all(
                plan.child.schema.has(ref.name, ref.qualifier)
                for ref in column_refs(rewritten)
            ):
                pushable.append(rewritten)
            else:
                stuck.append(conjunct)
        child = _push(plan.child, pushable)
        return _wrap_filter(LogicalAlias(child, plan.binding), stuck)

    if isinstance(plan, LogicalLimit):
        # Filters must not move below LIMIT (it would change which rows are kept).
        child = _push(plan.child, [])
        return _wrap_filter(plan.with_children([child]), pending)

    if isinstance(plan, LogicalUnion):
        children = [_push(child, []) for child in plan.inputs]
        return _wrap_filter(plan.with_children(children), pending)

    if isinstance(plan, LogicalScan):
        return _wrap_filter(plan, pending)

    # Unknown/extension nodes: do not push through.
    children = [_push(child, []) for child in plan.children]
    rebuilt = plan.with_children(children) if children else plan
    return _wrap_filter(rebuilt, pending)


def _push_join(plan: LogicalJoin, pending: list[Expr]) -> LogicalPlan:
    left_quals = _plan_qualifiers(plan.left)
    right_quals = _plan_qualifiers(plan.right)
    if plan.kind == "LEFT":
        # A WHERE conjunct reading the null-supplying side filters padded rows
        # too, so it may not move into ON. One that is never TRUE on a padded
        # row makes the join INNER; any other stays above the join.
        def padded(ref: ColumnRef) -> bool:
            if ref.qualifier is None:
                return plan.right.schema.has(ref.name) and not plan.left.schema.has(ref.name)
            return ref.qualifier.lower() in right_quals

        reads_right = [c for c in pending if any(map(padded, column_refs(c)))]
        if any(_rejects_nulls(conjunct, padded) for conjunct in reads_right):
            inner = LogicalJoin(plan.left, plan.right, "INNER", plan.condition)
            return _push_join(inner, pending)
        left = _push(plan.left, [c for c in pending if c not in reads_right])
        right = _push(plan.right, [])
        return _wrap_filter(LogicalJoin(left, right, "LEFT", plan.condition), reads_right)

    to_left: list[Expr] = []
    to_right: list[Expr] = []
    to_condition: list[Expr] = []
    stuck: list[Expr] = []
    candidates = list(pending)
    if plan.condition is not None:
        candidates += split_conjuncts(plan.condition)

    for conjunct in candidates:
        quals = referenced_qualifiers(conjunct)
        if "" in quals:
            # Unqualified refs: resolve by schema membership.
            side = _side_of_unqualified(conjunct, plan)
            if side == "left":
                to_left.append(conjunct)
            elif side == "right":
                to_right.append(conjunct)
            else:
                stuck.append(conjunct)
        elif quals <= left_quals:
            to_left.append(conjunct)
        elif quals <= right_quals:
            to_right.append(conjunct)
        else:
            to_condition.append(conjunct)

    left = _push(plan.left, to_left)
    right = _push(plan.right, to_right)
    rebuilt = LogicalJoin(left, right, plan.kind, conjoin(to_condition))
    return _wrap_filter(rebuilt, stuck)


def _rejects_nulls(expr: Expr, padded) -> bool:
    """Whether `expr` is never TRUE on a row whose `padded` columns are NULL
    (`padded`: ColumnRef -> bool)."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _rejects_nulls(expr.left, padded) or _rejects_nulls(expr.right, padded)
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        return _rejects_nulls(expr.left, padded) and _rejects_nulls(expr.right, padded)
    return _null_when_padded(expr, padded)


def _null_when_padded(expr: Expr, padded) -> bool:
    """Whether `expr` is NULL whenever its `padded` columns are: SQL's
    NULL-in, NULL-out operators and functions (not AND / OR, IS NULL, CASE,
    COALESCE)."""
    if isinstance(expr, ColumnRef):
        return padded(expr)
    if isinstance(expr, BinaryOp):
        return expr.op not in ("AND", "OR") and (
            _null_when_padded(expr.left, padded) or _null_when_padded(expr.right, padded)
        )
    if isinstance(expr, UnaryOp):
        return _null_when_padded(expr.operand, padded)
    if isinstance(expr, Like):
        return _null_when_padded(expr.operand, padded) or _null_when_padded(expr.pattern, padded)
    if isinstance(expr, (InList, Between)):
        return _null_when_padded(expr.operand, padded)
    if isinstance(expr, FuncCall) and propagates_null(expr.name):
        return any(_null_when_padded(arg, padded) for arg in expr.args)
    return False


def _side_of_unqualified(conjunct: Expr, plan: LogicalJoin) -> Optional[str]:
    refs = column_refs(conjunct)
    if all(plan.left.schema.has(ref.name, ref.qualifier) for ref in refs):
        return "left"
    if all(plan.right.schema.has(ref.name, ref.qualifier) for ref in refs):
        return "right"
    return None


def _project_mapping(plan: LogicalProject) -> dict:
    mapping = {}
    for item, column in zip(plan.items, plan.schema):
        key = ((column.qualifier or "").lower(), column.name.lower())
        mapping[key] = item.expr
    return mapping


def _has_aggregate(expr: Expr) -> bool:
    from repro.sql.exprutil import contains_aggregate

    return contains_aggregate(expr)


def _plan_qualifiers(plan: LogicalPlan) -> set[str]:
    return {(column.qualifier or "").lower() for column in plan.schema} - {""} | {
        (column.qualifier or "").lower() for column in plan.schema
    }


def _wrap_filter(plan: LogicalPlan, conjuncts: list[Expr]) -> LogicalPlan:
    conjuncts = [c for c in conjuncts if c != Literal(True)]
    predicate = conjoin(conjuncts)
    if predicate is None:
        return plan
    return LogicalFilter(plan, predicate)


# ---------------------------------------------------------------------------
# Projection pruning
# ---------------------------------------------------------------------------


def prune_columns(plan: LogicalPlan) -> LogicalPlan:
    """Insert narrowing projections directly above scans.

    Collects every `(qualifier, name)` referenced anywhere in the plan and
    drops scan columns nothing uses. This is what keeps component queries
    narrow when the federation layer ships them to remote sources.
    """
    required = _collect_required(plan)
    return _apply_pruning(plan, required)


def _collect_required(plan: LogicalPlan) -> set:
    required: set = set()
    for node in plan.walk():
        exprs: list[Expr] = []
        if isinstance(node, LogicalFilter):
            exprs.append(node.predicate)
        elif isinstance(node, LogicalJoin) and node.condition is not None:
            exprs.append(node.condition)
        elif isinstance(node, LogicalProject):
            exprs.extend(item.expr for item in node.items)
        elif isinstance(node, LogicalAggregate):
            exprs.extend(node.group_exprs)
            for call in node.aggregates:
                exprs.extend(call.args)
        elif isinstance(node, LogicalSort):
            exprs.extend(item.expr for item in node.order_items)
        elif isinstance(node, LogicalUnion):
            # Union is positional; require all child columns.
            for child in node.inputs:
                for column in child.schema:
                    required.add(
                        ((column.qualifier or "").lower(), column.name.lower())
                    )
        for expr in exprs:
            for ref in column_refs(expr):
                required.add(((ref.qualifier or "").lower(), ref.name.lower()))
    return required


def _apply_pruning(plan: LogicalPlan, required: set) -> LogicalPlan:
    if isinstance(plan, LogicalAlias):
        # References to the alias binding translate to child columns.
        translated = set(required)
        binding = plan.binding.lower()
        for column in plan.child.schema:
            name = column.name.lower()
            if (binding, name) in required or ("", name) in required:
                translated.add(((column.qualifier or "").lower(), name))
        child = _apply_pruning(plan.child, translated)
        return LogicalAlias(child, plan.binding)
    if isinstance(plan, LogicalScan):
        keep = _keep_columns(plan, required)
        if keep is None:
            return plan
        items = [
            SelectItem(ColumnRef(column.name, column.qualifier)) for column in keep
        ]
        return LogicalProject(plan, items)
    if isinstance(plan, LogicalFilter) and isinstance(plan.child, LogicalScan):
        # Keep Filter directly over Scan so the executor can choose an index
        # access path; the narrowing projection goes above the filter.
        keep = _keep_columns(plan.child, required)
        if keep is None:
            return plan
        items = [
            SelectItem(ColumnRef(column.name, column.qualifier)) for column in keep
        ]
        return LogicalProject(plan, items)
    children = [_apply_pruning(child, required) for child in plan.children]
    return plan.with_children(children) if children else plan


def _keep_columns(scan: LogicalScan, required: set):
    """Columns of `scan` the plan needs, or None when nothing can be dropped."""
    keep = [
        column
        for column in scan.schema
        if ((column.qualifier or "").lower(), column.name.lower()) in required
        or ("", column.name.lower()) in required
    ]
    if not keep:
        keep = list(scan.schema.columns[:1])  # keep one column for COUNT(*)
    if len(keep) == len(scan.schema):
        return None
    return keep


# ---------------------------------------------------------------------------
# Eager aggregation
# ---------------------------------------------------------------------------

#: how a partial is built for a join input: ``place(x, group)``, where
#: `group(child)` is the partial aggregate over a child standing for `x`
Place = Callable[[LogicalPlan, Callable[[LogicalPlan], LogicalPlan]], LogicalPlan]


def _group_in_place(x: LogicalPlan, group) -> LogicalPlan:
    return group(x)


def eager_aggregate(plan: LogicalPlan, cost_model, place: Place = _group_in_place) -> LogicalPlan:
    """`plan` with each GROUP BY over a join pre-aggregating one join input
    by its join key, where that is sound and pays most (Yan & Larson, "Eager
    Aggregation and Lazy Aggregation", VLDB 1995); `plan` itself, no node
    built, where nothing moves. `place` builds the partial (the federated
    planner folds it into a fetch). Run it where every join stays a join
    (at the hub: after `_cut`): a bind join's probed side is a template,
    not an input."""
    children = plan.children
    rebuilt = [eager_aggregate(child, cost_model, place) for child in children]
    if any(new is not old for new, old in zip(rebuilt, children)):
        plan = plan.with_children(rebuilt)
    if isinstance(plan, LogicalAggregate):
        best = None
        for x, join, padded in _join_inputs(plan.child):
            candidate = _pre_aggregate(plan, x, join, padded, cost_model, place)
            if candidate is not None and (best is None or candidate[0] > best[0]):
                best = candidate
        if best is not None:
            return best[1]
    return plan


def _pre_aggregate(
    agg: LogicalAggregate, x: LogicalPlan, join: LogicalPlan, padded: bool, cost_model, place: Place
) -> Optional[tuple]:
    """``(rows saved, plan)``: `agg` with its join input `x` grouped by the
    columns the plan reads of it outside its aggregates (`_decompose`);
    None when unsound or when the estimate says fewer rows would not enter
    `join`."""
    qualifiers = {(column.qualifier or "").lower() for column in x.schema}
    if len(qualifiers) != 1 or "" in qualifiers:
        return None
    binding = x.schema[0].qualifier

    def mine(ref: ColumnRef) -> bool:
        if ref.qualifier is None:
            return x.schema.has(ref.name)
        return ref.qualifier.lower() == binding.lower()

    decomposed = _decompose(agg, mine, binding, padded)
    keyed = any(mine(a) != mine(b) for a, b in _join_keys(join))
    if decomposed is None or not keyed:
        return None
    partials, finals = decomposed
    read = {
        ref.name.lower()
        for expr in [*_region_exprs(agg.child, x), *agg.group_exprs]
        for ref in column_refs(expr)
        if mine(ref)
    }
    groups = [column for column in x.schema if column.name.lower() in read]
    if any(column.name.startswith("_p") for column in groups):
        return None  # a partial's name would shadow it

    def group(child: LogicalPlan) -> LogicalPlan:
        return LogicalAggregate(
            child,
            [ColumnRef(column.name, column.qualifier) for column in groups],
            [column.name for column in groups],
            list(partials),
            [ref.name for ref in partials.values()],
        )

    pre = place(x, group)
    saved = cost_model.estimate(x).rows - cost_model.estimate(pre).rows
    if saved <= 0:
        return None
    child = _replace_input(agg.child, x, LogicalAlias(pre, binding))
    if all(_aggregate_calls(final) == [final] for final in finals):
        return saved, LogicalAggregate(child, agg.group_exprs, agg.group_names, finals, agg.agg_names)
    # some final is an expression over aggregates: fold them, then project
    calls: dict = {}
    for final in finals:
        for call in _aggregate_calls(final):
            calls.setdefault(call, ColumnRef(f"_m{len(calls)}"))
    folded = LogicalAggregate(
        child, agg.group_exprs, agg.group_names, list(calls), [ref.name for ref in calls.values()]
    )
    items = [SelectItem(ColumnRef(name)) for name in agg.group_names]
    items += [SelectItem(transform(final, calls.get), name) for final, name in zip(finals, agg.agg_names)]
    return saved, LogicalProject(folded, items)


def _decompose(agg: LogicalAggregate, mine, binding: str, padded: bool) -> Optional[tuple]:
    """``(partials, finals)`` for pre-aggregating the join input whose columns
    `mine` tells: the partial calls over it (-> their column under
    `binding`), and per aggregate of `agg` the expression that folds them.
    None when an aggregate does not decompose.

    A partial row stands for its group's rows, which join alike. So `SUM`,
    `MIN` and `MAX` of the input fold their partials; `COUNT(e)` and `AVG(e)`
    sum partial counts; `COUNT(*)` sums partial row counts, where a padded
    row (`padded`: the input is null-supplying) counts 1. Aggregates of other
    inputs may not see the multiplicity: `MIN`, `MAX` and `DISTINCT` ones
    stand, any other blocks, as does a `DISTINCT` aggregate of the input."""
    partials: dict = {}

    def partial(call: FuncCall) -> ColumnRef:
        return partials.setdefault(call, ColumnRef(f"_p{len(partials)}", binding))

    def summed(call: FuncCall) -> FuncCall:
        return FuncCall("SUM", (partial(call),))

    finals: list = []
    for call in agg.aggregates:
        name = call.name.upper()
        refs = [ref for arg in call.args for ref in column_refs(arg)]
        if refs and all(map(mine, refs)):
            if call.distinct or name not in ("SUM", "COUNT", "MIN", "MAX", "AVG"):
                return None
            if name == "COUNT":
                finals.append(FuncCall("COALESCE", (summed(call), Literal(0))))
            elif name == "AVG":
                sums = summed(FuncCall("SUM", call.args))
                finals.append(BinaryOp("/", sums, summed(FuncCall("COUNT", call.args))))
            else:
                finals.append(FuncCall(name, (partial(call),)))
        elif any(map(mine, refs)):
            return None
        elif name == "COUNT" and not call.distinct and isinstance(call.args[0], Star):
            rows = partial(FuncCall("COUNT", (Star(),)))
            weight = FuncCall("COALESCE", (rows, Literal(1))) if padded else rows
            total = FuncCall("SUM", (weight,))
            finals.append(total if agg.group_exprs else FuncCall("COALESCE", (total, Literal(0))))
        elif not (call.distinct or name in ("MIN", "MAX")):
            return None
        else:
            finals.append(call)
    return (partials, finals) if partials else None


def _in_region(node: LogicalPlan) -> bool:
    """Whether `node` belongs to a join region: a join, or a filter or
    narrowing project over one."""
    if node.joins:
        return True
    if isinstance(node, LogicalFilter) or (
        isinstance(node, LogicalProject)
        and all(isinstance(item.expr, ColumnRef) and item.alias is None for item in node.items)
    ):
        return _in_region(node.child)
    return False


def _join_inputs(node: LogicalPlan, padded: bool = False):
    """``(input, join, padded)`` per input of the join region at `node`;
    `padded` when the input is null-supplying (under a LEFT join's right)."""
    if node.joins:
        for child, nulls in zip(node.children, (padded, padded or node.kind == "LEFT")):
            if _in_region(child):
                yield from _join_inputs(child, nulls)
            else:
                yield child, node, nulls
    elif _in_region(node):
        yield from _join_inputs(node.child, padded)


def _region_exprs(node: LogicalPlan, x: LogicalPlan):
    """The join conditions and filter predicates of the region at `node`,
    outside its input `x`."""
    if node is x or not _in_region(node):
        return
    if node.joins and node.condition is not None:
        yield node.condition
    if isinstance(node, LogicalFilter):
        yield node.predicate
    for child in node.children:
        yield from _region_exprs(child, x)


def _replace_input(node: LogicalPlan, x: LogicalPlan, new: LogicalPlan) -> LogicalPlan:
    """The region at `node` reading `new` for its input `x`; a project that
    passed columns of `x` through passes `new`'s."""
    if node is x:
        return new
    if not _in_region(node):
        return node
    children = [_replace_input(child, x, new) for child in node.children]
    if isinstance(node, LogicalProject):
        items = [
            item for item in node.items
            if not x.schema.has(item.expr.name, item.expr.qualifier)
        ]
        if len(items) < len(node.items):
            items += [SelectItem(ColumnRef(column.name, column.qualifier)) for column in new.schema]
        return LogicalProject(children[0], items)
    return node.with_children(children)


def _join_keys(join: LogicalPlan) -> list:
    """The ``(a, b)`` column pairs `join` equates."""
    sides = map(equi_join_sides, split_conjuncts(join.condition))
    return [pair for pair in sides if pair is not None]


def _aggregate_calls(expr: Expr) -> list:
    return [
        node for node in walk(expr)
        if isinstance(node, FuncCall) and is_aggregate_name(node.name)
    ]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def optimize_logical(
    plan: LogicalPlan, cost_model=None, join_dp_limit=None
) -> LogicalPlan:
    """Full logical optimization pipeline.

    `join_dp_limit` caps exhaustive join-order search (None keeps the
    module default, `joinorder.DP_LIMIT`).
    """
    from repro.engine.joinorder import DP_LIMIT, reorder_joins

    plan = fold_plan_constants(plan)
    plan = push_filters(plan)
    if cost_model is not None:
        limit = DP_LIMIT if join_dp_limit is None else join_dp_limit
        plan = reorder_joins(plan, cost_model, dp_limit=limit)
        plan = push_filters(plan)  # reordering can re-expose pushdown chances
    plan = prune_columns(plan)
    return plan
