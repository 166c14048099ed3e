"""A statement's *shape*: the statement less its lookup constants.

`lift` takes the constant out of each top-level WHERE conjunct `column = c` /
`column <> c` (either way round) and prints the rest, a typed slot in its
place. Planning reads of such a constant its type (in the text) and an equality
selectivity (`CostModel.slot_reads`), no more: a plan made for one statement
of a shape, re-bound, serves another - the plan caches key on the shape.
All else stays in the shape verbatim - NULL, booleans, non-finite floats,
integers beyond +-2**53, operands of `<`, BETWEEN, LIKE and IN, constants
under OR or outside WHERE - because planning reads more of it than that.
The one IN-list that is a slot is a bind join's keys (`with_in_filter`).

A constant travels as a value from the text to the operator comparing with it:
a `Template` swaps the literal lexemes of a masked text into a parsed
prototype, `rebind` swaps those `Literal`s, by identity, wherever a plan or a
prepared operator holds them. Nothing on the way is derived again.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, replace
from typing import Callable, Generic, NamedTuple, Optional, Protocol, TypeVar

from repro.sql.ast import BinaryOp, ColumnRef, Expr, InList, Literal, LiteralValues, Select
from repro.sql.exprutil import column_vs_literal
from repro.sql.lexer import string_value
from repro.sql.printer import to_sql

#: Members a `Family` keeps: a shape's distinct reads (two for a key column)
#: and the latest constants besides - never-repeating lookups turn these over.
FAMILY = 8


class Lifted(NamedTuple):
    """What `lift` finds: the key to plan under, and what was taken out of it."""

    shape: str
    columns: tuple = ()  # per slot: the `ColumnRef` its constant is compared with
    values: tuple = ()  # per slot: the statement's `Literal` (last, a bind join's `LiteralValues`)


def _lifts(value) -> bool:
    kind = value.__class__  # exact: TRUE is not an int, a timestamp not a date
    if kind is int:
        return abs(value) <= 2**53
    if kind is float:
        return math.isfinite(value)
    return kind is str or kind is datetime.date


def _slot(conjunct: Expr) -> Optional[tuple]:
    """``(column, literal)`` of a conjunct whose constant lifts, else None."""
    found = column_vs_literal(conjunct)
    if found is None or found[1] not in ("=", "<>") or not _lifts(found[2]):
        return None
    column = found[0]
    return column, conjunct.left if conjunct.right is column else conjunct.right


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

    where = _swap_slots(where, slot)
    return Lifted(to_sql(replace(stmt, where=where) if slots else stmt), *zip(*slots))


def with_in_filter(template: Select, key: ColumnRef, keys) -> Select:
    """`template` with `key IN (keys)` as its last conjunct: one chunk of a bind
    join. The keys are its one vector slot - its shape is the template's and a
    mark, known without printing, its value the `LiteralValues`, never walked."""
    items = LiteralValues(keys)
    in_list = InList(key, items)
    where = in_list if template.where is None else BinaryOp("AND", template.where, in_list)
    stmt = replace(template, where=where)
    shape, columns, values = lift(template)
    vars(stmt)["lifted"] = Lifted(f"{shape} AND {key} IN ?keys", columns + (key,), values + (items,))
    return stmt


def plant(stmt: Select) -> tuple:
    """``(statement, slots)``: `stmt` with a new `Literal` in each slot - a plan
    made from it re-binds by identity whatever objects `stmt` itself shares.
    A bind join's keys are theirs alone already, and planted as they are."""
    values = lift(stmt).values
    slots: list = []

    def fresh(column: ColumnRef, literal: Literal) -> Literal:
        slots.append(Literal(literal.value))
        return slots[-1]

    if not any(value.__class__ is Literal for value in values):  # nothing lifts, keys aside
        return stmt, values
    planted = replace(stmt, where=_swap_slots(stmt.where, fresh))
    return planted, (*slots, *values[len(slots):])


def rebind(predicate: Optional[Expr], swap: dict, found: set) -> Optional[Expr]:
    """`predicate` with each operand in `swap` (`id(planted)` -> replacement)
    replaced, itself if it holds none; `found` gains the `id` of each one met.
    A re-binding that leaves `found` short of `swap` met a plan that holds a
    *copy* of a planted literal, and would serve the model's constant there.
    Visited is only where the rewriter puts a WHERE conjunct: operands of
    comparisons under ANDs, and the keys of an IN-list, whole."""
    if predicate.__class__ is InList:
        items = swap.get(id(predicate.items))
        if items is None:
            return predicate
        found.add(id(predicate.items))
        return InList(predicate.operand, items, predicate.negated)
    if predicate.__class__ is not BinaryOp:
        return predicate
    left, right = predicate.left, predicate.right
    if predicate.op == "AND":
        new_left, new_right = rebind(left, swap, found), rebind(right, swap, found)
    else:
        new_left, new_right = swap.get(id(left), left), swap.get(id(right), right)
        if new_left is not left:
            found.add(id(left))
        if new_right is not right:
            found.add(id(right))
    if new_left is left and new_right is right:
        return predicate
    return BinaryOp(predicate.op, new_left, new_right)


def rebind_select(stmt: Select, swap: dict, found: set) -> Select:
    """`stmt` rebound where a pushed-down WHERE conjunct may sit: WHERE, an ON.
    What `lift` knows of `stmt` the result inherits, constants swapped - unless
    one was swapped that `lift` left in the shape (there the shape *is* the text)."""
    mine: set = set()
    where = rebind(stmt.where, swap, mine)
    ons = [rebind(join.condition, swap, mine) for join in stmt.joins]
    if not mine:
        return stmt
    found |= mine
    joins = tuple(
        join if on is join.condition else replace(join, condition=on)
        for on, join in zip(ons, stmt.joins)
    )
    bound = replace(stmt, where=where, joins=joins)
    known = vars(stmt).get("lifted")
    if known is not None and mine == {id(value) for value in known.values if id(value) in swap}:
        values = tuple([swap.get(id(value), value) for value in known.values])
        vars(bound)["lifted"] = Lifted(known.shape, known.columns, values)
    return bound


# -- the plans kept per shape -----------------------------------------------------

M = TypeVar("M", bound="Member")


class Member(Protocol):
    """A plan prepared for the constants in `slots`, estimated under `reads`
    (`CostModel.slot_reads`): a `FederatedPlan`, a source's prepared statement."""

    @property
    def slots(self) -> tuple: ...

    @property
    def reads(self) -> tuple: ...

    def bound_to(self: M, values: tuple) -> Optional[M]:
        """This plan for `values`, estimates kept; None if a slot is not found."""
        ...


@dataclass(frozen=True)
class Family(Generic[M]):
    """What is kept of one shape, newest first: a store replaces it whole,
    so a reader never sees one change. `stamp` is what its keeper checks it
    against (a source: its dialect and tables); None where the key says it."""

    members: tuple = ()
    stamp: object = None

    def find(self, values: tuple, reads: Callable[[], tuple]) -> Optional[M]:
        """The member holding these constants, else the first with equal reads
        re-bound to them (`reads()` is called once, and only then), else None:
        plan them. A member that holds a copy of a slot does not re-bind."""
        for member in self.members:
            if member.slots == values:
                return member
        wanted = reads() if self.members else None
        bound = (member.bound_to(values) for member in self.members if member.reads == wanted)
        return next((member for member in bound if member is not None), None)

    def add(self, member: M) -> "Family[M]":
        """This family with `member` newest, itself if it holds `member`: what
        `find` returned, or a plan for constants no member has (`find`
        compared them all). Over `FAMILY`, the oldest member whose reads
        another shares goes (else the oldest): each distinct reads keeps a model."""
        if any([known is member for known in self.members]):
            return self
        members = [member, *self.members]
        if len(members) > FAMILY:
            reads = [known.reads for known in members]
            del members[next((n for n in range(FAMILY, 0, -1) if reads.count(reads[n]) > 1), -1)]
        return Family(tuple(members), self.stamp)


# -- text -> statement without the parser -----------------------------------------


class Template(NamedTuple):
    """How the texts of one masked spelling (`repro.sql.lexer.mask`) become
    statements: which of their literal lexemes, by ordinal, fill the slots of
    a parsed prototype, and which are part of its key."""

    slots: tuple  # per lifted constant: (ordinal of its lexeme, negated by a folded minus)
    verbatim: tuple  # ordinals of the other lexemes (`LIMIT 5`, `< 500`)

    def key(self, masked: str, values: list) -> Optional[tuple]:
        """What a prototype is kept under; None when `values` are not one per
        mark (the text itself spells a `?int`: no statement)."""
        if len(values) != len(self.slots) + len(self.verbatim):
            return None
        return masked, self.slots, tuple([values[ordinal] for ordinal in self.verbatim])

    def constants(self, values: list) -> tuple:
        return tuple([
            Literal(-values[ordinal] if negated else values[ordinal])
            for ordinal, negated in self.slots
        ])


def learn(statement, tokens: list, origins: dict, values: list) -> Optional[Template]:
    """The `Template` a full parse of a text teaches, None if it has no slot or
    `mask` and the parser disagree on any literal of this text. `tokens` and
    `origins` are the parser's (`parse_with_origins`), `values` the mask's."""
    if statement.__class__ is not Select:
        return None
    literals = [(index, token) for index, token in enumerate(tokens) if token.kind in ("NUMBER", "STRING")]
    lexemes = [index for index, _ in literals]
    read = [string_value(token.value) if token.kind == "STRING" else token.value for _, token in literals]
    if list(map(Literal, read)) != list(map(Literal, values)):
        return None
    slots = []
    for literal in lift(statement).values:
        index, negated = origins.get(id(literal), (None, False))
        if index is None:
            return None  # a constant no one lexeme spells: `-TRUE`
        slots.append((lexemes.index(index), negated))
    taken = {ordinal for ordinal, _ in slots}
    template = Template(tuple(slots), tuple(n for n in range(len(read)) if n not in taken))
    if not slots or template.constants(values) != lift(statement).values:
        return None
    return template


def instantiate(prototype: Select, template: Template, values: list) -> Optional[Select]:
    """`prototype` (a statement `template` was learned from) for the literal
    lexemes `values` of another text of its masked spelling and key; None if a
    value is one no slot holds (an integer beyond 2**53)."""
    constants = template.constants(values)
    if not all([_lifts(literal.value) for literal in constants]):
        return None
    swap = dict(zip(map(id, lift(prototype).values), constants))
    found: set = set()
    bound = rebind_select(prototype, swap, found)
    return bound if len(found) == len(swap) else None
