"""A statement's *shape*: the statement less its lookup constants.

`lift` takes the constant out of each top-level WHERE conjunct `column = c` /
`column <> c` (either way round) and prints the rest, a typed slot in its
place. Planning reads of such a constant its type and an equality selectivity
(`CostModel.slot_reads`), no more: a plan is prepared once per shape and reads
from `plant`'s statement - a `Param` in each slot - and run, estimated and
printed with each statement's values, passed along. The plan caches key on
the shape. All else stays verbatim - NULL, booleans, non-finite floats,
integers beyond +-2**53, operands of `<`, BETWEEN, LIKE and IN, constants
under OR or outside WHERE - because planning reads more of it than that. The
one IN-list that is a slot is a bind join's keys (`with_in_filter`). A fetch
sends its statement and values together (`Bound`).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, replace
from typing import Callable, Generic, NamedTuple, Optional, Protocol, TypeVar

from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    Literal,
    LiteralValues,
    Param,
    Select,
)
from repro.sql.exprutil import column_vs_literal, walk, with_values
from repro.sql.lexer import string_value
from repro.sql.printer import to_sql

#: Members a `Family` keeps: a shape's distinct reads (two for a key column)
#: and the latest constants besides - never-repeating lookups turn these over.
FAMILY = 8


class Lifted(NamedTuple):
    """What `lift` finds: the key to plan under, and what was taken out of it."""

    shape: str
    columns: tuple = ()  # per slot: the `ColumnRef` its constant is compared with
    #: per slot: the statement's `Literal` or `Param` (last, a bind join's `LiteralValues`)
    values: tuple = ()


def _lifts(value) -> bool:
    kind = value.__class__  # exact: TRUE is not an int, a timestamp not a date
    if kind is int:
        return abs(value) <= 2**53
    if kind is float:
        return math.isfinite(value)
    return kind is str or kind is datetime.date or kind is Param


def _slot(conjunct: Expr) -> Optional[tuple]:
    """``(column, operand)`` of a conjunct whose constant lifts, else None."""
    found = column_vs_literal(conjunct)
    if found is None or found[1] not in ("=", "<>") or not _lifts(found[2]):
        return None
    column = found[0]
    return column, conjunct.left if conjunct.right is column else conjunct.right


def _swap_slots(where: Optional[Expr], swap) -> Optional[Expr]:
    """`where` with ``swap(column, operand)`` in place of each slot's operand,
    a bind join's keys (its last conjunct) included."""
    if where.__class__ is BinaryOp and where.op == "AND":
        left, right = _swap_slots(where.left, swap), _swap_slots(where.right, swap)
        if left is where.left and right is where.right:
            return where
        return BinaryOp("AND", left, right)
    if where.__class__ is InList and where.items.__class__ is LiteralValues:
        return InList(where.operand, swap(where.operand, where.items), where.negated)
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


def _kind(operand) -> type:
    """The class of the constant `operand` is or stands for."""
    kind = operand.__class__
    if kind is Param:
        return operand.kind
    return kind if kind is LiteralValues else operand.value.__class__


def _lift(stmt: Select) -> Lifted:
    planted, slots = _planted(stmt)
    return Lifted(planted.text, *zip(*slots))  # a `Param` prints `?int`: no lexer yields it


def _planted(stmt: Select) -> tuple:
    """``(statement, slots)``: `stmt` with `Param(i)` in slot i, and per slot
    ``(column, operand)`` - a bind join's keys included."""
    slots: list = []

    def slot(column: ColumnRef, operand) -> Param:
        slots.append((column, operand))
        return Param(len(slots) - 1, _kind(operand))

    where = _swap_slots(stmt.where, slot)
    return (replace(stmt, where=where) if slots else stmt), slots


def with_in_filter(template: Select, key: ColumnRef, keys) -> Select:
    """`template` with `key IN (keys)` as its last conjunct: one chunk of a bind
    join. The keys are its one vector slot - its shape is the template's and a
    mark, known without printing, its value the `LiteralValues`, never walked."""
    items = LiteralValues(keys)
    in_list = InList(key, items)
    where = in_list if template.where is None else BinaryOp("AND", template.where, in_list)
    stmt = _with_where(template, where)
    shape, columns, values = lift(template)
    vars(stmt)["lifted"] = Lifted(f"{shape} AND {key} IN ?keys", columns + (key,), values + (items,))
    vars(stmt)["params"] = params_in(template)
    return stmt


def _with_where(stmt: Select, where: Optional[Expr]) -> Select:
    """`stmt` with `where` in place of its own: the constructor's work alone,
    on the path every new text and bind chunk takes."""
    s = stmt
    return Select(s.items, s.from_tables, s.joins, where, s.group_by, s.having, s.order_by, s.limit, s.distinct)


def plant(stmt: Select) -> Select:
    """`stmt` with `Param(i)` in slot i, typed as its constant: what a plan is
    prepared from, and then run with the values of each statement of its shape."""
    return _planted(stmt)[0]


# -- a statement holding `Param`s, sent with its values --------------------------


class Bound:
    """A prepared plan's statement and the values its `Param`s stand for: what
    a fetch sends its source. It reads and prints as the statement it stands
    for (no attribute of its own shadows one of a `Select`)."""

    __slots__ = ("stmt", "values")

    def __init__(self, stmt: Select, values: tuple):
        self.stmt = stmt
        self.values = values

    def __getattr__(self, name: str):  # read as the statement it stands for
        return getattr(self.stmt, name)

    def __str__(self):
        stmt = self.stmt
        return to_sql(stmt, values=self.values) if self.values and params_in(stmt) else stmt.text


def unbind(stmt) -> tuple:
    """``(statement, constants)`` of what a source is sent, a `Select` or a
    `Bound`: per slot its constant. A `Param` outside the slots (in an ON)
    is no slot: that statement is taken as it prints, constants and all."""
    if stmt.__class__ is Select:
        return stmt, lift(stmt).values
    stmt, values = stmt.stmt, stmt.values
    if params_in(stmt) < 0:
        stmt = resolved(stmt, values)
        return stmt, lift(stmt).values
    return stmt, tuple([values[v.index] if v.__class__ is Param else v for v in lift(stmt).values])


def resolved(stmt: Select, values: tuple) -> Select:
    """`stmt` with each `Param` (in WHERE or an ON, where rewrites put them)
    the constant it stands for in `values`."""
    return replace(stmt, where=stmt.where and with_values(stmt.where, values), joins=tuple([
        replace(join, condition=join.condition and with_values(join.condition, values)) for join in stmt.joins
    ]))


def params_in(stmt: Select) -> int:
    """How many `Param`s `stmt` holds - a rewrite puts them in WHERE or an
    ON - or -1 if one is outside its slots (derived once)."""
    known = vars(stmt).get("params")
    if known is None:
        exprs = [stmt.where, *[join.condition for join in stmt.joins]]
        count = sum(node.__class__ is Param for expr in exprs if expr is not None for node in walk(expr))
        slotted = sum(value.__class__ is Param for value in lift(stmt).values)
        known = vars(stmt)["params"] = count if count == slotted else -1
    return known


# -- the plans kept per shape -----------------------------------------------------

M = TypeVar("M", bound="Member")


class Member(Protocol):
    """A plan prepared from a shape's planted statement (`plant`) for the
    constants `values`, estimated under their `reads` (`CostModel.slot_reads`):
    a `FederatedPlan`, a source's prepared statement. It serves every values
    tuple of equal reads."""

    @property
    def values(self) -> tuple: ...

    @property
    def reads(self) -> tuple: ...


@dataclass(frozen=True)
class Family(Generic[M]):
    """What is kept of one shape, newest first: a store replaces it whole,
    so a reader never sees one change. `stamp` is what its keeper checks it
    against (a source: its dialect and tables); None where the key says it."""

    members: tuple = ()
    stamp: object = None

    def find(self, values: tuple, reads: Callable[[], tuple]) -> Optional[M]:
        """The member kept for these constants, else the first of equal reads
        (`reads()` is called once, and only then), else None: plan them."""
        for member in self.members:
            if member.values == values:
                return member
        wanted = reads() if self.members else None
        return next((member for member in self.members if member.reads == wanted), None)

    def add(self, member: M) -> "Family[M]":
        """This family with `member` newest, itself if it holds `member`: what
        `find` returned, or a plan for constants no member has (`find`
        compared them all). Over `FAMILY`, the oldest member whose reads
        another shares goes (else the oldest): each distinct reads keeps a plan."""
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
    lexemes `values` of another text of its masked spelling and key - its
    shape known, its constants these; None if a value is one no slot holds
    (an integer beyond 2**53)."""
    constants = template.constants(values)
    if not all([_lifts(literal.value) for literal in constants]):
        return None
    slots = iter(constants)
    stmt = _with_where(prototype, _swap_slots(prototype.where, lambda column, literal: next(slots)))
    known = lift(prototype)
    vars(stmt)["lifted"] = Lifted(known.shape, known.columns, constants)
    return stmt
