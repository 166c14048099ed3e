"""Cost-based join-order search.

Contiguous trees of INNER joins are flattened into (inputs, predicates) and
re-ordered: exhaustive dynamic programming over connected subsets for up to
`DP_LIMIT` inputs, greedy smallest-intermediate-result beyond that. LEFT
joins act as barriers — their subtrees are optimized independently but the
outer join itself is never commuted.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from repro.engine.cost import CostModel, PlanCost
from repro.engine.logical import LogicalFilter, LogicalJoin, LogicalPlan
from repro.sql.ast import Expr
from repro.sql.exprutil import (
    column_refs,
    conjoin,
    referenced_qualifiers,
    split_conjuncts,
)

DP_LIMIT = 8
CROSS_JOIN_PENALTY = 1e6


def reorder_joins(
    plan: LogicalPlan, cost_model: CostModel, dp_limit: int = DP_LIMIT
) -> LogicalPlan:
    """Recursively reorder every maximal inner-join region of the plan.

    `dp_limit` is the largest input count still searched exhaustively;
    larger regions fall back to the greedy heuristic. The whole pass runs
    under one estimate memo scope — the search estimates shared subtrees
    once instead of once per candidate containing them.
    """
    with cost_model.memo_scope():
        return _reorder(plan, cost_model, dp_limit)


def _reorder(plan: LogicalPlan, cost_model: CostModel, dp_limit: int) -> LogicalPlan:
    if isinstance(plan, LogicalJoin) and plan.kind == "INNER":
        inputs, predicates = _flatten(plan)
        inputs = [_reorder(node, cost_model, dp_limit) for node in inputs]
        if len(inputs) <= 1:
            return _wrap(inputs[0], predicates)
        ordered = _search(inputs, predicates, cost_model, dp_limit)
        return ordered
    children = [_reorder(child, cost_model, dp_limit) for child in plan.children]
    return plan.with_children(children) if children else plan


def _is_inner_join_region(node: LogicalPlan) -> bool:
    while isinstance(node, LogicalFilter):
        node = node.child
    return isinstance(node, LogicalJoin) and node.kind == "INNER"


def _flatten(plan: LogicalPlan):
    """Flatten a maximal INNER-join tree into leaf inputs and predicates.

    Only filters sitting *above* further inner joins are hoisted into the
    shared predicate pool. A filter directly on a leaf (where predicate
    pushdown put it) stays attached to that input, so the search costs the
    *filtered* cardinality — hoisting it would make every single-table
    selection invisible to join ordering, since leaf states never apply
    pool predicates.
    """
    inputs: list[LogicalPlan] = []
    predicates: list[Expr] = []

    def recurse(node: LogicalPlan):
        if isinstance(node, LogicalJoin) and node.kind == "INNER":
            recurse(node.left)
            recurse(node.right)
            if node.condition is not None:
                predicates.extend(split_conjuncts(node.condition))
        elif isinstance(node, LogicalFilter) and _is_inner_join_region(node.child):
            predicates.extend(split_conjuncts(node.predicate))
            recurse(node.child)
        else:
            inputs.append(node)

    recurse(plan)
    return inputs, predicates


def _qualifiers(plan: LogicalPlan) -> frozenset:
    return frozenset((column.qualifier or "").lower() for column in plan.schema)


def _predicate_applies(predicate: Expr, quals: frozenset, schemas) -> bool:
    """True if every column the predicate references resolves in `schemas`."""
    refs = column_refs(predicate)
    for ref in refs:
        if ref.qualifier is not None:
            if ref.qualifier.lower() not in quals:
                return False
        else:
            if not any(schema.has(ref.name) for schema in schemas):
                return False
    return True


class _JoinState:
    """A candidate sub-join during the search."""

    __slots__ = ("plan", "mask", "cost")

    def __init__(self, plan: LogicalPlan, mask: int, cost: PlanCost):
        self.plan = plan
        self.mask = mask
        self.cost = cost


def _search(inputs, predicates, cost_model: CostModel, dp_limit: int) -> LogicalPlan:
    if len(inputs) <= max(dp_limit, 1):
        return _dp(inputs, predicates, cost_model)
    return _greedy(inputs, predicates, cost_model)


def _plan_key(plan: LogicalPlan, values: tuple) -> str:
    """Deterministic tie-break key: the plan's label path, each `Param` its
    constant in `values` (the estimating pass's).

    Equal-cost candidates (symmetric sides, duplicated inputs) would
    otherwise be decided by enumeration order — stable within one process
    but fragile under refactoring; the lexicographically smallest rendering
    wins instead.
    """
    return "|".join(node.label(values) for node in plan.walk())


def _join_candidates(left: _JoinState, right: _JoinState, predicates, used, cost_model):
    """Build the join of two states, consuming every now-applicable predicate."""
    quals = _qualifiers(left.plan) | _qualifiers(right.plan)
    schemas = (left.plan.schema, right.plan.schema)
    joined_schema_probe = left.plan.schema.concat(right.plan.schema)
    applicable = []
    for index, predicate in enumerate(predicates):
        if index in used:
            continue
        if _predicate_applies(predicate, quals, (joined_schema_probe,)):
            applicable.append(index)
    condition = conjoin([predicates[i] for i in applicable])
    plan = LogicalJoin(left.plan, right.plan, "INNER", condition)
    cost = cost_model.estimate(plan)
    penalty = CROSS_JOIN_PENALTY if condition is None else 0.0
    total = PlanCost(cost.rows, cost.cost + penalty, cost.column_stats)
    return plan, total, set(applicable)


def _dp(inputs, predicates, cost_model: CostModel) -> LogicalPlan:
    n = len(inputs)
    best: dict[int, tuple] = {}  # mask -> (cost_value, plan, used_pred_indexes, est)
    for i, node in enumerate(inputs):
        est = cost_model.estimate(node)
        best[1 << i] = (est.cost, node, frozenset(), est)

    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            mask = 0
            for i in subset:
                mask |= 1 << i
            candidates = []
            # Split the subset into two non-empty halves already solved.
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other and sub in best and other in best:
                    candidates.append((sub, other))
                sub = (sub - 1) & mask
            entry = None
            for left_mask, right_mask in candidates:
                left_cost, left_plan, left_used, left_est = best[left_mask]
                right_cost, right_plan, right_used, right_est = best[right_mask]
                used = left_used | right_used
                for a, b in ((left_plan, right_plan), (right_plan, left_plan)):
                    a_state = _JoinState(a, 0, left_est)
                    b_state = _JoinState(b, 0, right_est)
                    plan, cost, consumed = _join_candidates(
                        a_state, b_state, predicates, used, cost_model
                    )
                    total = cost.cost
                    if (
                        entry is None
                        or total < entry[0]
                        or (total == entry[0] and _plan_key(plan, cost_model.values) < _plan_key(entry[1], cost_model.values))
                    ):
                        entry = (total, plan, frozenset(used | consumed), cost)
            if entry is not None:
                best[mask] = entry

    full = (1 << n) - 1
    _, plan, used, _ = best[full]
    leftover = [p for i, p in enumerate(predicates) if i not in used]
    return _wrap(plan, leftover)


def _greedy(inputs, predicates, cost_model: CostModel) -> LogicalPlan:
    states = []
    for node in inputs:
        states.append(_JoinState(node, 0, cost_model.estimate(node)))
    remaining = list(range(len(predicates)))
    used: set[int] = set()

    while len(states) > 1:
        best_pair: Optional[tuple] = None
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                plan, cost, consumed = _join_candidates(
                    states[i], states[j], predicates, used, cost_model
                )
                # (i, j) makes equal-cost choices explicit: first pair in
                # input order wins, deterministically.
                key = (cost.rows, cost.cost, i, j)
                if best_pair is None or key < best_pair[0]:
                    best_pair = (key, i, j, plan, cost, consumed)
        _, i, j, plan, cost, consumed = best_pair
        used |= consumed
        new_state = _JoinState(plan, 0, cost)
        states = [s for k, s in enumerate(states) if k not in (i, j)]
        states.append(new_state)

    leftover = [p for i, p in enumerate(predicates) if i not in used]
    return _wrap(states[0].plan, leftover)


def _wrap(plan: LogicalPlan, predicates) -> LogicalPlan:
    predicate = conjoin(predicates)
    if predicate is None:
        return plan
    return LogicalFilter(plan, predicate)
