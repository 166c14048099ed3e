"""A statement's *shape*: the statement less its lookup constants.

`lift` takes the constant out of each top-level WHERE conjunct `column = c` /
`column <> c` (either way round) and prints the rest, a typed slot in its
place. Planning reads of such a constant its type (in the text) and an equality
selectivity (`CostModel.slot_reads`), no more: a plan made for one statement
of a shape, re-bound, serves another - the plan caches key on the shape.
All else stays in the shape verbatim - NULL, booleans, non-finite floats,
integers beyond +-2**53, operands of `<`, BETWEEN, LIKE and IN, constants
under OR or outside WHERE - because planning reads more of it than that.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import replace
from typing import NamedTuple, Optional

from repro.sql.ast import BinaryOp, ColumnRef, Expr, InList, Literal, LiteralValues, Select
from repro.sql.exprutil import column_vs_literal, walk
from repro.sql.printer import to_sql

#: Plans kept per shape, newest first: the hub's differ in their reads (two for
#: a key column), a source's in their constants - lookups turn over these.
FAMILY = 8


class Lifted(NamedTuple):
    """What `lift` finds: the key to plan under, and what was taken out of it."""

    shape: object  # the shape text - or the statement itself, see `lift`
    columns: tuple = ()  # per slot: the `ColumnRef` its constant is compared with
    values: tuple = ()  # per slot: the statement's `Literal`


def _slot(conjunct: Expr) -> Optional[tuple]:
    """``(column, literal)`` of a conjunct whose constant lifts, else None."""
    found = column_vs_literal(conjunct)
    if found is None or found[1] not in ("=", "<>"):
        return None
    column, _, value = found
    literal = conjunct.left if conjunct.right is column else conjunct.right
    kind = value.__class__  # exact: TRUE is not an int, a timestamp not a date
    if kind is int:
        lifts = abs(value) <= 2**53
    elif kind is float:
        lifts = math.isfinite(value)
    else:
        lifts = kind is str or kind is datetime.date
    return (column, literal) if lifts else None


def _swap_slots(where: Optional[Expr], swap) -> Optional[Expr]:
    """`where` with ``swap(column, literal)`` in place of each slot's literal."""
    if where.__class__ is BinaryOp and where.op == "AND":
        left, right = _swap_slots(where.left, swap), _swap_slots(where.right, swap)
        if left is where.left and right is where.right:
            return where
        return BinaryOp("AND", left, right)
    found = _slot(where)
    if found is None:
        return where
    if where.left is found[1]:
        return BinaryOp(where.op, swap(*found), where.right)
    return BinaryOp(where.op, where.left, swap(*found))


def lift(stmt: Select) -> Lifted:
    """The shape of `stmt` and the constants lifted out of it - derived once:
    kept on the (immutable) statement, so with a parsed text or a cached plan."""
    where = stmt.where
    # a bind join's chunk (keys last) is its own key: unprinted, unkept (a cycle)
    last = where.right if where.__class__ is BinaryOp and where.op == "AND" else where
    if last.__class__ is InList and last.items.__class__ is LiteralValues:
        return Lifted(stmt)
    known = vars(stmt).get("lifted")
    if known is None:
        known = vars(stmt)["lifted"] = _lift(stmt)
    return known


def _lift(stmt: Select) -> Lifted:
    where = stmt.where
    slots: list = []

    def slot(column: ColumnRef, literal: Literal) -> ColumnRef:
        slots.append((column, literal))
        # prints `?int`: a name no lexer yields, so no column collides with it
        return ColumnRef("?" + literal.value.__class__.__name__)

    # The rewriter drops a WHERE conjunct that *equals* an ON conjunct of an
    # outer join: with a constant there, the plan's structure reads values.
    if not any(
        join.kind == "LEFT" and any(node.__class__ is Literal for node in walk(join.condition))
        for join in stmt.joins
    ):
        where = _swap_slots(where, slot)
    return Lifted(to_sql(replace(stmt, where=where) if slots else stmt), *zip(*slots))


def plant(stmt: Select) -> tuple:
    """``(statement, slots)``: `stmt` with a new `Literal` in each slot - a plan
    made from it re-binds by identity whatever objects `stmt` itself shares."""
    slots: list = []

    def fresh(column: ColumnRef, literal: Literal) -> Literal:
        slots.append(Literal(literal.value))
        return slots[-1]

    if not lift(stmt).values:  # nothing lifts, or a bind join's chunk
        return stmt, ()
    return replace(stmt, where=_swap_slots(stmt.where, fresh)), tuple(slots)


def rebind(predicate: Optional[Expr], swap: dict) -> Optional[Expr]:
    """`predicate` with each literal in `swap` (`id(planted)` -> replacement)
    replaced, itself if it holds none. Visited is only where the rewriter puts
    a WHERE conjunct: operands of comparisons under ANDs (no IN-list's keys)."""
    if predicate.__class__ is not BinaryOp:
        return predicate
    left, right = predicate.left, predicate.right
    if predicate.op == "AND":
        new_left, new_right = rebind(left, swap), rebind(right, swap)
    else:
        new_left, new_right = swap.get(id(left), left), swap.get(id(right), right)
    if new_left is left and new_right is right:
        return predicate
    return BinaryOp(predicate.op, new_left, new_right)


def rebind_select(stmt: Select, swap: dict) -> Select:
    """`stmt` rebound where a pushed-down WHERE conjunct may sit: WHERE, an ON."""
    where = rebind(stmt.where, swap)
    ons = [rebind(join.condition, swap) for join in stmt.joins]
    if where is stmt.where and all(on is join.condition for on, join in zip(ons, stmt.joins)):
        return stmt
    joins = tuple(replace(join, condition=on) for on, join in zip(ons, stmt.joins))
    return replace(stmt, where=where, joins=joins)
