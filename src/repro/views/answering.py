"""Answering queries using views: match, verify, rewrite, serve.

The semantic-caching half of Halevy's "views as the central metaphor":
instead of federating a SELECT across sources, find a registered
materialized view that *subsumes* it and compensate locally over the view's
rows — zero network, one local scan.

Matching is conservative subsumption over normalized `QueryShape`s
(`repro.views.catalog`):

* same real table set, view conjuncts a subset of query conjuncts (the
  residual becomes the compensation's WHERE);
* join structure verified with the classical conjunctive-query containment
  check (`repro.mediator.cq.is_contained_in`) for pure-inner shapes, and by
  exact join-signature equality when LEFT joins are involved;
* aggregate views answer aggregate queries by **exact** group match (plain
  projection, HAVING folded into WHERE) or by **rollup**: a view grouped by
  (a, b) answers a query grouped by (a) via re-aggregation with the usual
  derivations — COUNT→SUM, SUM→SUM, MIN→MIN, MAX→MAX, AVG→SUM/COUNT.

A SELECT whose FROM clause *is* a materialized view's name needs no match: it
runs over the rows as written (`kind="named"`), or unfolds live like any name.

Serving is staleness-aware (`ServePolicy`): a dirty or over-stale view
falls back to base federation by default (row identity guaranteed), or —
with ``serve_stale`` — answers anyway, annotated as stale and never
admitted to the result cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.errors import EIIError
from repro.common.relation import Relation
from repro.mediator.cq import Atom, ConjunctiveQuery, Var, is_contained_in
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    TableRef,
)
from repro.sql.exprutil import column_refs, conjoin, map_children
from repro.sql.functions import is_aggregate_name
from repro.views.catalog import (
    CompiledView,
    QueryShape,
    ServePolicy,
    canonical_text,
    compile_shape,
)


@dataclass(frozen=True)
class ViewProvenance:
    """How a result was answered from a view — carried on FederatedResult."""

    view: str
    kind: str  # "spj" | "exact" | "rollup" | "named" (the view is the FROM clause)
    staleness_s: float
    fresh: bool
    tables: frozenset = frozenset()  # base tables under the view (cache tags)

    def describe(self) -> str:
        state = "fresh" if self.fresh else "STALE"
        return (
            f"view: {self.view} ({self.kind}, "
            f"staleness={self.staleness_s:.1f}s, {state})"
        )


@dataclass(frozen=True)
class ViewAnswer:
    """One successful view rewrite, evaluated over the view's rows."""

    relation: Relation
    plan: object  # logical plan of the compensation, over the view as a table
    rows_scanned: int
    provenance: ViewProvenance


class _RewriteFailed(Exception):
    """Internal: the compensation cannot be expressed over this view."""


def _view_col(view: CompiledView, text: str) -> ColumnRef:
    return ColumnRef(view.outputs[text].lower())


def _descend(expr: Expr, rewrite: Callable[[Expr], Expr]) -> Expr:
    """The rewriters' shared tail: a column the view does not expose fails the
    rewrite, any other node is rebuilt from its rewritten children (so the
    query's own output aliases, literals and `*` pass through)."""
    if isinstance(expr, ColumnRef) and expr.qualifier is not None:
        raise _RewriteFailed(f"column {expr} not exposed by view")
    return map_children(expr, rewrite)


def _rewrite_plain(expr: Expr, view: CompiledView) -> Expr:
    """SPJ rewrite: map whole matching expressions (then columns) to view
    outputs; aggregates recompute over the view's rows."""
    text = canonical_text(expr)
    if text in view.outputs and text not in view.aggregate_outputs:
        return _view_col(view, text)
    return _descend(expr, lambda node: _rewrite_plain(node, view))


def _rewrite_exact(expr: Expr, view: CompiledView) -> Expr:
    """Exact-group rewrite: one view row per group, so aggregate outputs are
    referenced directly; AVG derives from SUM/COUNT when not stored."""
    text = canonical_text(expr)
    if text in view.outputs:
        return _view_col(view, text)
    if isinstance(expr, FuncCall) and is_aggregate_name(expr.name):
        if expr.distinct:
            raise _RewriteFailed("DISTINCT aggregates are not derivable")
        if expr.name == "AVG" and len(expr.args) == 1:
            sum_col, count_col = _avg_parts(view, expr.args[0])
            return BinaryOp("/", sum_col, count_col)
        raise _RewriteFailed(f"aggregate {text} not exposed by view")
    return _descend(expr, lambda node: _rewrite_exact(node, view))


def _rewrite_rollup(expr: Expr, view: CompiledView) -> Expr:
    """Rollup rewrite: re-aggregate over coarser groups with the standard
    derivations (COUNT→SUM, SUM→SUM, MIN→MIN, MAX→MAX, AVG→SUM/SUM)."""
    if isinstance(expr, FuncCall) and is_aggregate_name(expr.name):
        if expr.distinct:
            raise _RewriteFailed("DISTINCT aggregates do not roll up")
        text = canonical_text(expr)
        stored = view.aggregate_outputs.get(text)
        if expr.name in ("MIN", "MAX"):
            if stored is None:
                raise _RewriteFailed(f"{text} not exposed by view")
            return FuncCall(expr.name, (ColumnRef(stored.lower()),))
        if expr.name in ("COUNT", "SUM"):
            if stored is None:
                raise _RewriteFailed(f"{text} not exposed by view")
            return FuncCall("SUM", (ColumnRef(stored.lower()),))
        if expr.name == "AVG" and len(expr.args) == 1:
            sum_col, count_col = _avg_parts(view, expr.args[0])
            return BinaryOp(
                "/",
                FuncCall("SUM", (sum_col,)),
                FuncCall("SUM", (count_col,)),
            )
        raise _RewriteFailed(f"aggregate {text} does not roll up")
    text = canonical_text(expr)
    if text in view.outputs and text not in view.aggregate_outputs:
        return _view_col(view, text)
    return _descend(expr, lambda node: _rewrite_rollup(node, view))


def _avg_parts(view: CompiledView, arg: Expr) -> tuple:
    """The stored SUM and COUNT columns AVG(arg) derives from."""
    arg_text = str(arg)
    stored_sum = view.aggregate_outputs.get(f"SUM({arg_text})")
    stored_count = view.aggregate_outputs.get(
        f"COUNT({arg_text})"
    ) or view.aggregate_outputs.get("COUNT(*)")
    if stored_sum is None or stored_count is None:
        raise _RewriteFailed(f"AVG({arg_text}) not derivable from view")
    return ColumnRef(stored_sum.lower()), ColumnRef(stored_count.lower())


# ---------------------------------------------------------------------------
# Containment verification (pure-inner shapes)
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, key):
        root = key
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(key, key) != key:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _shape_cq(shape: QueryShape, name: str, head_keys, catalog) -> ConjunctiveQuery:
    """The shape's equality skeleton as a conjunctive query.

    Variables are named by the union-find representative of each
    `table.column` equivalence class; column = literal conjuncts substitute
    the constant. Non-equality conjuncts are dropped — sound here, because
    dropping restrictions only widens the query being checked for
    containment (and the view side's extra conjuncts were already required
    to appear textually in the query).
    """
    classes = _UnionFind()
    constants: dict = {}
    for expr in shape.conjuncts.values():
        if not (isinstance(expr, BinaryOp) and expr.op == "="):
            continue
        left, right = expr.left, expr.right
        if (
            isinstance(left, ColumnRef)
            and left.qualifier
            and isinstance(right, ColumnRef)
            and right.qualifier
        ):
            classes.union(str(left), str(right))
        elif isinstance(left, ColumnRef) and left.qualifier and isinstance(right, Literal):
            constants[str(left)] = right.value
        elif isinstance(right, ColumnRef) and right.qualifier and isinstance(left, Literal):
            constants[str(right)] = left.value

    by_class: dict = {}
    for key, value in constants.items():
        by_class[classes.find(key)] = value

    def term(key: str):
        rep = classes.find(key)
        if rep in by_class:
            return by_class[rep]
        return Var(f"V_{rep.replace('.', '_')}")

    body = []
    for table in sorted(shape.tables):
        columns = catalog.entry(table).schema.names
        body.append(
            Atom(table, tuple(term(f"{table}.{col.lower()}") for col in columns))
        )
    head = tuple(term(key) for key in sorted(head_keys))
    return ConjunctiveQuery(name, head, tuple(body))


def _verify_containment(q: QueryShape, v: QueryShape, catalog) -> bool:
    """q ⊆ v on the equality skeleton (canonical-database theorem)."""
    head_keys = q.needed_columns()
    try:
        q_cq = _shape_cq(q, "q", head_keys, catalog)
        v_cq = _shape_cq(v, "v", head_keys, catalog)
    except EIIError:
        return False
    return is_contained_in(q_cq, v_cq)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def match_and_rewrite(
    q: QueryShape, view: CompiledView, catalog
) -> Optional[tuple]:
    """Try to answer shape `q` from `view`: returns (Select, kind) or None.

    The returned Select reads the view as a single local table named after
    the view, with the query's output names preserved as aliases.
    """
    v = view.shape
    if q.tables != v.tables:
        return None
    if q.has_left or v.has_left:
        if q.has_left != v.has_left or q.join_sig != v.join_sig:
            return None
    if not set(v.conjuncts) <= set(q.conjuncts):
        return None
    residual = [
        expr for text, expr in q.conjuncts.items() if text not in v.conjuncts
    ]
    if not q.has_left and not _verify_containment(q, v, catalog):
        return None

    if v.is_aggregate:
        if not q.is_aggregate:
            return None
        # pre-aggregation filters and grouping must ride on view group keys
        for conj in residual:
            for ref in column_refs(conj):
                if ref.qualifier is None:
                    return None
                text = str(ref)
                if text not in view.outputs or text not in v.group_texts:
                    return None
        if not (q.group_texts <= v.group_texts):
            return None
        if any(text not in view.outputs for text, _ in q.group):
            return None
        exact = q.group_texts == v.group_texts
        rewriter = _rewrite_exact if exact else _rewrite_rollup
        kind = "exact" if exact else "rollup"
    else:
        rewriter = _rewrite_plain
        kind = "spj"

    def rw(expr: Expr) -> Expr:
        return rewriter(expr, view)

    try:
        items = tuple(SelectItem(rw(item.expr), alias=item.name) for item in q.items)
        where_parts = [_rewrite_plain(conj, view) for conj in residual]
        having: Optional[Expr] = None
        if kind == "exact":
            # one view row per group: grouping disappears, HAVING filters rows
            group_by: tuple = ()
            if q.having is not None:
                where_parts.append(rw(q.having))
        else:
            group_by = tuple(rw(expr) for _, expr in q.group)
            if q.having is not None:
                having = rw(q.having)
        order_by = tuple(
            OrderItem(rw(order.expr), order.ascending) for order in q.order_by
        )
    except _RewriteFailed:
        return None

    rewritten = Select(
        items=items,
        from_tables=(TableRef(view.name),),
        joins=(),
        where=conjoin(where_parts) if where_parts else None,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=q.limit,
        distinct=q.distinct,
    )
    return rewritten, kind


# ---------------------------------------------------------------------------
# The serving layer
# ---------------------------------------------------------------------------


class ViewAnswering:
    """Matches engine SELECTs against the engine's materialized views.

    Owned by `FederatedEngine`; `try_answer` is called on the query path
    (result-cache miss, before planning). Everything it knows about a view it
    reads off the view's `Definition` record; when a view refreshes is
    `ViewManager.refresh_if_due`'s decision. Thread-safe: one lock serializes
    matching, refreshes and staging. Nested engine queries issued by view
    refresh run with ``use_views=False``, so the lock is never re-entered.
    """

    def __init__(self, engine, policy: Optional[ServePolicy] = None):
        self.engine = engine
        self.policy = policy or ServePolicy()
        self._lock = threading.Lock()

    def try_answer(self, statement) -> tuple:
        """Try to answer `statement` from a materialized view.

        Returns ``(ViewAnswer | None, fallback_view_names)`` —
        ``fallback_view_names`` lists views that *matched* but were too
        stale to serve under the policy (recorded as view_fallbacks).
        """
        if not isinstance(statement, Select):
            return None, []
        manager, catalog = self.engine.views, self.engine.catalog
        with self._lock:
            fallbacks: list = []
            if len(statement.from_tables) == 1 and not statement.joins:
                # FROM is one name and it has rows: the statement runs on them as it is
                name = statement.from_tables[0].name.lower()
                named = catalog.definitions.get(name)
                if named is not None and named.policy is not None:
                    return self._serve(manager, name, named, statement, "named", fallbacks), fallbacks
            try:
                q = compile_shape(statement, catalog)
            except EIIError:
                return None, []
            for name in manager.materialized_names():
                view = manager.view(name)
                if view.compiled is None:
                    continue
                match = match_and_rewrite(q, view.compiled, catalog)
                if match is None:
                    continue
                answer = self._serve(manager, name, view, *match, fallbacks)
                if answer is not None:
                    return answer, fallbacks
            return None, fallbacks

    def _serve(
        self, manager, name, view, rewritten, kind, fallbacks
    ) -> Optional[ViewAnswer]:
        try:
            manager.refresh_if_due(view, reading=False)
        except EIIError:
            return None
        staleness = view.staleness()
        fresh = self.policy.is_fresh(view.dirty, staleness)
        if view.data is None or not (fresh or self.policy.serve_stale):
            fallbacks.append(name)
            return None
        try:
            staged = manager.staged(view)
            plan = staged.logical_plan(rewritten)
            relation = staged.lower(plan).relation()
        except EIIError:
            return None
        view.serve_count += 1
        provenance = ViewProvenance(name, kind, staleness, fresh, view.tables)
        return ViewAnswer(relation, plan, len(view.data), provenance)
