"""Canonical plan-node signatures for cardinality feedback.

A feedback entry must survive re-planning: the second planning of the same
query builds *new* plan objects, so actuals recorded during execution have
to be keyed by something stable. The signature is the source name plus the
*shape* of the pushed-down SQL — the statement with its select list replaced
by ``*`` (column pruning runs after join reordering, so planning-time
subtrees and executed fetches legitimately differ in their select lists)
and its WHERE conjuncts sorted by canonical text (conjunct order is an
artifact of pushdown order, not of what the source computes).
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import EIIError
from repro.sql.ast import Select, SelectItem, Star
from repro.sql.exprutil import conjoin, split_conjuncts
from repro.sql.printer import to_sql


def cardinality_shape(stmt: Select, values: tuple = ()) -> str:
    """Text of all a statement's cardinality rests on - constants too, each
    `Param` its constant in `values`, unlike `repro.sql.shape`."""
    where = stmt.where
    if where is not None:
        conjuncts = sorted(split_conjuncts(where), key=lambda conjunct: to_sql(conjunct, values=values))
        where = conjoin(conjuncts)
    shaped = Select(
        items=(SelectItem(Star()),),
        from_tables=stmt.from_tables,
        joins=stmt.joins,
        where=where,
        group_by=stmt.group_by,
        having=stmt.having,
        # ORDER BY never changes the row count; LIMIT and DISTINCT do.
        order_by=(),
        limit=stmt.limit,
        distinct=stmt.distinct,
    )
    return to_sql(shaped, values=values)


def fetch_signature(source_name: str, stmt: Select, values: tuple = ()) -> str:
    """Signature for a whole component fetch at one source."""
    return f"{source_name}::{cardinality_shape(stmt, values)}"


def bind_signature(source_name: str, template: Select, right_key, values: tuple = ()) -> str:
    """Signature for a bind join's probe template (IN-lists stripped).

    Chunks of one bind join share this signature: the per-chunk IN-list is
    execution detail, while the calibrated quantity is rows *per shipped
    key* against the template's shape.
    """
    key = f"{(right_key.qualifier or '').lower()}.{right_key.name.lower()}"
    return f"{source_name}::bind[{key}]::{cardinality_shape(template, values)}"


def subtree_signature(plan, catalog, values: tuple = ()) -> Optional[str]:
    """Signature of a logical subtree *as if* it were pushed to its source.

    Lets a `FeedbackCostModel` recognize, during the next planning pass,
    the same single-source subtree whose fetch it observed at runtime.
    Returns None for subtrees that span sources or cannot be expressed as
    one component SELECT (those never become fetches, so there is nothing
    recorded under their name anyway).
    """
    from repro.engine.logical import LogicalScan
    from repro.federation.nodes import LogicalBindJoin, LogicalFetch
    from repro.federation.planner import plan_to_select

    source: Optional[str] = None
    for node in plan.walk():
        if isinstance(node, (LogicalFetch, LogicalBindJoin)):
            return None
        if isinstance(node, LogicalScan):
            try:
                entry = catalog.entry(node.table_name)
            except EIIError:
                return None
            if source is None:
                source = entry.source.name
            elif entry.source.name != source:
                return None
    if source is None:
        return None
    try:
        stmt = plan_to_select(plan, catalog)
    except EIIError:
        return None
    return fetch_signature(source, stmt, values)
