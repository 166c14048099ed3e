"""Post-planning invariant verification (EII4xx diagnostics).

Run over a `FederatedPlan` in strict mode (`validate=True`), these checks
catch planner bugs *before* execution ships a byte: every pushed-down
component query must fit its source's declared capabilities, the plan's
fetch/bind-join bookkeeping must match the tree, dependency tags must be
complete (cache invalidation relies on them), accidental cartesian products
are flagged, and partial-result degradability annotations must only appear
where dropping a branch cannot fabricate wrong answers.
"""

from __future__ import annotations

from typing import List, Set

from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.federation.nodes import LogicalBindJoin, LogicalFetch
from repro.sql.ast import Expr
from repro.sql.exprutil import column_refs, split_conjuncts
from repro.sql.printer import to_sql
from repro.sql.shape import resolved, with_in_filter
from repro.wrappers.pushability import statement_reasons


def verify_plan(plan, degradable=None, values: tuple = ()) -> List[Diagnostic]:
    """EII4xx diagnostics for a `FederatedPlan` (never raises), its texts
    showing `values` for its `Param`s.

    ``degradable`` is the set of node ``id()``s an execution would let
    degrade under `partial_results`; by default the engine's own marking
    (`repro.federation.execution.degradable_branches`) is checked.
    """
    diags: List[Diagnostic] = []
    walked_fetches = []
    walked_binds = []
    for node in plan.root.walk():
        if isinstance(node, LogicalFetch):
            walked_fetches.append(node)
        elif isinstance(node, LogicalBindJoin):
            walked_binds.append(node)

    diags.extend(_check_bookkeeping(plan, walked_fetches, walked_binds, values))
    for node in walked_fetches:
        diags.extend(_check_fetch_capabilities(node, values))
        diags.extend(_check_tags(node, "fetch", values))
        diags.extend(_check_fetch_connectivity(node, values))
    for node in walked_binds:
        diags.extend(_check_bind_capabilities(node, values))
        diags.extend(_check_tags(node, "bind join", values))
    diags.extend(_check_cartesian(plan))
    diags.extend(_check_degradable(plan, degradable, values))
    return diags


# ---------------------------------------------------------------------------
# EII403 — plan bookkeeping
# ---------------------------------------------------------------------------


def _check_bookkeeping(plan, walked_fetches, walked_binds, values) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for label, walked, listed in (
        ("fetch", walked_fetches, plan.fetches),
        ("bind join", walked_binds, plan.bind_joins),
    ):
        walked_ids = {id(node) for node in walked}
        listed_ids = {id(node) for node in listed}
        for node in walked:
            if id(node) not in listed_ids:
                diags.append(
                    error(
                        "EII403",
                        f"{label} {node.label(values)} is in the plan tree but "
                        f"missing from the plan's {label} list",
                        hint="the executor would never prefetch/track it",
                    )
                )
        for node in listed:
            if id(node) not in walked_ids:
                diags.append(
                    error(
                        "EII403",
                        f"{label} {node.label(values)} is listed on the plan but "
                        "absent from the plan tree",
                        hint="stale bookkeeping: the node can never run",
                    )
                )
    return diags


# ---------------------------------------------------------------------------
# EII401 — capability conformance of pushed-down work
# ---------------------------------------------------------------------------


def _check_fetch_capabilities(node: LogicalFetch, values) -> List[Diagnostic]:
    capabilities = node.source.capabilities
    if not statement_reasons(node.stmt, capabilities):
        return []
    stmt = resolved(node.stmt, values) if values else node.stmt  # as a run sends it
    return [
        error(
            "EII401",
            f"fetch {to_sql(stmt)} exceeds the capabilities of source "
            f"{node.source.name!r}",
            hint="; ".join(statement_reasons(stmt, capabilities)),
        )
    ]


def _check_bind_capabilities(node: LogicalBindJoin, values) -> List[Diagnostic]:
    """What a bind join sends is its template with `right_key IN (keys)`."""
    capabilities = node.source.capabilities
    if not statement_reasons(with_in_filter(node.template, node.right_key, ()), capabilities):
        return []
    template = resolved(node.template, values) if values else node.template  # as a run sends it
    return [
        error(
            "EII401",
            f"bind-join template {to_sql(template)} probed on "
            f"{node.right_key} exceeds the capabilities of source "
            f"{node.source.name!r}",
            hint="; ".join(statement_reasons(with_in_filter(template, node.right_key, ()), capabilities)),
        )
    ]


# ---------------------------------------------------------------------------
# EII404 — dependency-tag completeness
# ---------------------------------------------------------------------------


def _check_tags(node, label: str, values) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    if not node.tables:
        diags.append(
            error(
                "EII404",
                f"{label} {node.label(values)} has no `tables` tags: replica "
                "failover cannot find alternate sources for it",
                hint="the planner must stamp the global table names it reads",
            )
        )
    missing = {str(t).lower() for t in node.tables} - {
        str(t).lower() for t in node.depends_on
    }
    if missing:
        diags.append(
            error(
                "EII404",
                f"{label} {node.label(values)} reads {sorted(missing)} but its "
                "cache-invalidation tags (`depends_on`) omit them",
                hint="writes to those tables would leave stale cache entries",
            )
        )
    return diags


# ---------------------------------------------------------------------------
# EII402 — accidental cartesian products
# ---------------------------------------------------------------------------


def _check_cartesian(plan) -> List[Diagnostic]:
    from repro.engine.logical import LogicalJoin

    diags: List[Diagnostic] = []
    for node in plan.root.walk():
        if (
            isinstance(node, LogicalJoin)
            and node.kind == "INNER"
            and node.condition is None
        ):
            diags.append(
                warning(
                    "EII402",
                    "plan contains an inner join with no condition "
                    "(cartesian product) at the assembly site",
                    hint="add a join predicate unless the cross product is "
                    "intentional (CROSS JOIN)",
                )
            )
    return diags


def _check_fetch_connectivity(node: LogicalFetch, values) -> List[Diagnostic]:
    """A multi-table fetch whose tables are not all equi-join-connected."""
    stmt = node.stmt
    bindings = [ref.binding.lower() for ref in stmt.tables()]
    if len(bindings) < 2:
        return []
    conjuncts: List[Expr] = list(split_conjuncts(stmt.where))
    for join in stmt.joins:
        conjuncts.extend(split_conjuncts(join.condition))
    # union-find over bindings connected by any multi-binding predicate
    parent = {b: b for b in bindings}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    known = set(bindings)
    for conjunct in conjuncts:
        touched: Set[str] = set()
        for ref in column_refs(conjunct):
            if ref.qualifier is not None and ref.qualifier.lower() in known:
                touched.add(ref.qualifier.lower())
            elif ref.qualifier is None:
                touched = set()  # unqualified: cannot attribute, be lenient
                break
        touched = {find(b) for b in touched}
        if len(touched) >= 2:
            first, *rest = touched
            for other in rest:
                parent[other] = first
    roots = {find(b) for b in bindings}
    if len(roots) < 2:
        return []
    return [
        warning(
            "EII402",
            f"fetch {to_sql(stmt, values=values)} joins {len(bindings)} tables but its "
            f"predicates leave {len(roots)} disconnected groups: the source "
            "computes a cartesian product",
            hint="connect every table with a join predicate",
        )
    ]


# ---------------------------------------------------------------------------
# EII405 — degradability soundness
# ---------------------------------------------------------------------------


def _check_degradable(plan, marked, values) -> List[Diagnostic]:
    """Flag degradable marks on branches whose loss would fabricate answers.

    Recomputes the legal marking independently of the engine's traversal
    (union arms and nullable sides of LEFT joins are non-essential) and
    reports any node marked degradable beyond it.
    """
    from repro.engine.logical import LogicalJoin, LogicalUnion
    from repro.federation.execution import degradable_branches

    if marked is None:
        marked = degradable_branches(plan.root)

    allowed: Set[int] = set()

    def mark(node, degradable: bool) -> None:
        if isinstance(node, LogicalFetch):
            if degradable:
                allowed.add(id(node))
            return
        if isinstance(node, LogicalBindJoin):
            if degradable or node.kind == "LEFT":
                allowed.add(id(node))
            mark(node.left, degradable)
            return
        if isinstance(node, LogicalUnion):
            for child in node.children:
                mark(child, True)
            return
        if isinstance(node, LogicalJoin):
            mark(node.left, degradable)
            mark(node.right, degradable or node.kind == "LEFT")
            return
        for child in node.children:
            mark(child, degradable)

    mark(plan.root, False)
    diags: List[Diagnostic] = []
    for node in plan.root.walk():
        if not isinstance(node, (LogicalFetch, LogicalBindJoin)):
            continue
        if id(node) in marked and id(node) not in allowed:
            diags.append(
                error(
                    "EII405",
                    f"{node.label(values)} is marked degradable but feeds an "
                    "essential branch: dropping it would fabricate answers",
                    hint="only union arms and nullable LEFT-join sides may "
                    "degrade under partial_results",
                )
            )
    return diags
