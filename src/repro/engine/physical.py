"""Physical operators.

Operators hand out their rows via `run()`: a list of tuples, or `Columns`
that build them when read as rows. Each
carries its output schema and an `explain_label` for EXPLAIN trees. The
executor (`repro.engine.executor`) lowers logical plans to these operators;
the federation layer adds its own operators (bind joins, remote fetches)
that follow the same protocol.

The hot operators run *kernels*: the executor picks, once per lowering and
from the logical node alone, the cheapest loop that gives the row-at-a-time
answer (`pick_columns` when every expression is a plain column, a partition
by key and then one C-level fold per group and aggregate, one hash
build/probe shared by every equi-join). A kernel never mutates or returns
the list a child handed it - a `FetchOp`'s rows belong to the execution's
result memo - and holds no state between runs: a prepared plan is run by
many threads at once.

Tuples are built where rows leave a tree, not at every `Project`. Lowering
turns a plain-column `Project` into the positions it would pick, and the
consumer reads the child's rows through them: an aggregate's keys and
arguments, a join's keys and residual, a filter's or a sort's expressions.
A pick is built once: at the root (what a source ships, what the hub
returns), or as the input of a DISTINCT, a union or a bind join. Over a
hash or bind join the join builds it (`HashJoinOp.emitting`): its probe
matches row positions, and each picked column is gathered once, into
`Columns`. A join whose consumer reads rows - an aggregate, a sort, a
join above - emits `row + other` from the same probe. Any other pick is a
`ProjectOp`, or a `RelabelOp` where it keeps every column of a list its
operator built (`fresh`).

A `Batch`'s `kinds` vouch per column for the exact types held: a scan's are
its table's `Mirror`, operators that only drop, reorder, pick or concatenate
rows pass them on, filter guards and wire sizing read them, and an aggregate
skips the NULL test of a column vouched to hold no NULL. Its `columns` hold
the same rows column-major: a full scan's are the mirror, a filter's passes
read theirs there and keep a `Selection`, a pick gathers the shipped ones
into `Columns`, which `Relation` keeps until `rows` is first read, and a
fetch hands them on unbuilt. A join reads its keys and picked columns
there; index scans, aggregates, sorts, DISTINCT and unions read rows.

A tree holds a `Param` where its statement's slot is compared; a run is
given the values (`run(values)`, passed down), so one prepared tree serves
every statement of its shape, on any thread.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import chain, compress, repeat
from operator import is_not, itemgetter
from typing import Callable, Optional, Sequence

from repro.common.relation import Batch, Columns, Gathered, Relation, vouched
from repro.common.schema import RelSchema
from repro.sql.ast import Expr, LiteralValues, Param
from repro.sql.eval import compile_expr, in_pass
from repro.sql.exprutil import printed, walk, with_values
from repro.sql.functions import AGGREGATE_FUNCTIONS
from repro.storage.table import Mirror

_NULL_KIND = frozenset((type(None),))


def pick_columns(positions: Sequence[int]) -> Callable:
    """`rows -> Batch` of the values at `positions`, vouched as `rows` were;
    no call per row. Over rows holding their `columns` it hands out
    `Columns`: the picked columns gathered, or - over a few rows whose
    columns are `Transposed` - the pick itself, made when first read."""
    if len(positions) == 1:
        (position,) = positions  # itemgetter(i) would yield bare values
        pick = lambda rows, get=itemgetter(position): zip(map(get, rows))  # noqa: E731
    else:
        pick = partial(map, itemgetter(*positions))

    def kernel(rows):
        kinds = getattr(rows, "kinds", None)
        if kinds is not None:
            kinds = tuple([kinds[position] for position in positions])
        held = getattr(rows, "columns", None)
        if type(held) is Transposed:  # a few rows at hand: picked when first read
            at = held.positions
            picked = Transposed(held.rows, positions if at is None else [at[position] for position in positions])
            return Columns(picked, kinds, len(rows), rows, pick)
        if held is not None:
            values = [held.column(position) for position in positions]
            if None not in values:
                return Columns(Gathered(values), kinds, len(rows))
        out = Batch(pick(rows))
        out.kinds = kinds
        return out

    return kernel


def eval_columns(fns: Sequence[Callable]) -> Callable[[list], list]:
    """`rows -> list[tuple]` of what each compiled `row -> value` yields."""
    return lambda rows: [tuple([fn(row) for fn in fns]) for row in rows]


def join_keys(positions: Sequence[int]) -> Callable[[list], Sequence]:
    """`rows -> keys` for `hash_join`: a bare value for one column - the
    column itself where the rows hold it - a tuple for several, None
    wherever a key part is NULL."""
    if len(positions) == 1:
        (position,) = positions

        def keys(rows):
            held = getattr(rows, "columns", None)
            column = None if held is None else held.column(position)
            return [row[position] for row in rows] if column is None else column

        return keys
    pick = itemgetter(*positions)

    def keys(rows):
        held = getattr(rows, "columns", None)
        columns = None if held is None else [held.column(position) for position in positions]
        parts = map(pick, rows) if columns is None or None in columns else zip(*columns)
        return [None if None in key else key for key in parts]

    return keys


def hash_join(left_rows, left_keys, right_rows, right_keys, kind, residual, widths, pick=None):
    """Build on the right rows, probe with the left, in left-row order.

    A None key (see `join_keys`) is never built, so it never matches: NULL
    does not equi-join. `residual` tests each candidate pair as its
    concatenated row; a LEFT join pads a probe row nothing survived for
    with NULLs. `widths` are the two sides' widths.

    With no `pick` the answer is each match concatenated, `row + other`.
    With `pick` - positions into that concatenated row - the same probe
    matches row positions instead of rows, and the answer is `Columns` of
    the picked columns, in pick order, each gathered by the matched
    positions (`_gathered`): no joined row is built.
    """
    left_outer = kind == "LEFT"
    null_pad = (None,) * widths[1]
    at = range(sum(widths)) if pick is None else pick
    kinds = _joined_kinds(left_rows, right_rows, widths[0], left_outer, at)
    if pick is None:
        test = residual and (lambda row, other: residual(row + other))
        single, found = _probe(left_keys, left_rows, right_keys, right_rows, null_pad if left_outer else None, test)
        if single:
            out = [row + other for row, other in zip(left_rows, found) if other is not None]
        else:
            out = [row + other for row, matches in zip(left_rows, found) for other in matches]
        return vouched(out, kinds)
    build = len(right_rows)  # a LEFT join's pad: the NULL row after the last
    test = residual and (lambda probe, other: residual(left_rows[probe] + right_rows[other]))
    probes = range(len(left_rows))
    single, found = _probe(left_keys, probes, right_keys, range(build), build if left_outer else None, test)
    if single:
        others = list(found)
        if not left_outer and None in others:  # a probe row nothing matched
            matched = list(map(is_not, others, repeat(None)))
            probes, others = list(compress(probes, matched)), list(compress(others, matched))
    else:  # the probe rows that matched, each once per match
        found = list(found)
        probes, found = list(compress(probes, found)), list(compress(found, found))
        others = list(chain.from_iterable(found))
        if len(others) != len(probes):
            probes = [probe for probe, matches in zip(probes, found) for _ in matches]
    width = widths[0]
    lefts = iter(_gathered(left_rows, [p for p in pick if p < width], probes, False))
    rights = iter(_gathered(right_rows, [p - width for p in pick if p >= width], others, left_outer))
    columns = [next(lefts) if position < width else next(rights) for position in pick]
    return Columns(Gathered(columns), kinds, len(probes))


def _probe(left_keys, probes, right_keys, builds, pad, test) -> tuple:
    """What each probe item matches, in probe order: `probes` and `builds`
    stand for the two sides' rows - the rows themselves, or their
    positions. `(True, others)` where every build key is distinct and there
    is no `test`: per probe item its one match, else `pad` (None for an
    INNER join, which drops the item). Otherwise `(False, found)`: per probe
    item the sequence of its matches `test(probe, other)` accepts, and
    `(pad,)` under LEFT where there is none."""
    unique = dict(zip(right_keys, builds))
    if test is None and len(unique) == len(builds) and None not in unique:
        # every build key distinct and not NULL: one match, or none, per probe
        return True, map(unique.get, left_keys, repeat(pad))
    table: dict = defaultdict(list)
    for key, build in zip(right_keys, builds):
        if key is not None:
            table[key].append(build)
    find = table.get  # a defaultdict's get() adds nothing
    pads = () if pad is None else (pad,)
    if test is None:
        return False, map(find, left_keys, repeat(pads))
    return False, [
        [other for other in find(key, ()) if test(probe, other)] or pads
        for key, probe in zip(left_keys, probes)
    ]


def _gathered(rows, at: Sequence[int], positions, padded: bool) -> list:
    """The columns at `at` of the rows of `rows` at `positions` (every row,
    in order, as a `range`), each gathered once: off the columns `rows`
    hold where it holds them, else off the rows - the wider rows a
    `Transposed` reads, never the narrow ones built from them. `padded`: a
    LEFT join's NULL row is the row at position `len(rows)`."""
    if not at:
        return []
    held = getattr(rows, "columns", None)
    if type(held) is Transposed:
        rows, at, held = held.rows, at if held.positions is None else [held.positions[p] for p in at], None
    columns = None if held is None else list(map(held.column, at))
    take = None if type(positions) is range else _taker(positions)
    if columns is None or None in columns:
        rows = rows.rows() if type(rows) is Columns else rows
        if padded:
            rows = [*rows, (None,) * (max(at) + 1)]
        if take is not None:
            rows = take(rows)
        return [list(map(itemgetter(position), rows)) for position in at]
    if padded:
        columns = [[*column, None] for column in columns]
    if take is None:
        return columns
    return [take(column) for column in columns]


def _taker(positions: Sequence[int]) -> Callable:
    """`values -> the values at positions`, in one C-level call for several."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return lambda values, at=positions[0]: [values[at]]
    return lambda values: []


def _joined_kinds(left_rows, right_rows, width: int, left_outer: bool, at):
    """What a join of the two vouches for its columns at `at` (positions
    into the joined row, the left's `width` wide): each side's vouch (None
    for a side with none), the right one's NULL-able too under LEFT."""
    left, right = getattr(left_rows, "kinds", None), getattr(right_rows, "kinds", None)
    if left is None and right is None or not left_rows:
        return None
    kinds: list = []
    for position in at:
        if position < width:
            kinds.append(None if left is None else left[position])
            continue
        vouch = None if right is None else right[position - width]
        if left_outer:
            vouch = vouch | _NULL_KIND if vouch.__class__ is frozenset else None
        kinds.append(vouch)
    return tuple(kinds)


def run_filter_passes(passes, rows, values: tuple = ()):
    """The rows every pass (`repro.sql.eval.compile_filter_passes`) keeps, in
    order, vouched as `rows` were - or None when a column holds a type its
    pass is not exact for. Every guard covers *all* of `rows` before any
    pass runs: a row an earlier pass drops (its conjunct NULL, say) still
    reaches the later conjuncts of the closure, and may raise there. The
    rows' vouch answers a guard it satisfies; one it fails is no evidence
    (it may name types these rows lack), so the column is swept. An int
    literal meets a float-only column as a float: exact (`exact_under`),
    and the cheaper comparison. A `Param` operand is its constant in
    `values` (a bind join's keys: their pass, if they have one).

    The first pass over rows holding their columns (a scan's) reads its
    column there. If it is the only pass and keeps most rows, the answer is
    `Columns` holding a `Selection` of the columns by its mask, the rows
    gathered only if read. Else the kept rows are taken, the other passes
    test them, and they hold their columns `Transposed`.
    """
    kinds = getattr(rows, "kinds", None)
    held = getattr(rows, "columns", None)
    tested = []
    for position, admits, test, operand in passes:
        if operand.__class__ is Param:
            operand = operand.value_in(values)
            if operand.__class__ is LiteralValues:
                keyed = in_pass(operand)
                if keyed is None:
                    return None
                admits, operand = keyed
            else:
                operand = operand.value
        column = None if held is None else held.column(position)
        if column is None:
            held = None
        vouch = None if kinds is None else kinds[position]
        if vouch.__class__ is not frozenset or not vouch <= admits:
            if column is None:
                column = list(map(itemgetter(position), rows))
            vouch = set(map(type, column))
            if not vouch <= admits:
                return None
        if operand.__class__ is int and vouch <= _FLOATS:
            operand = float(operand)
        tested.append((type(None) in vouch, column, position, test, operand))
    kept = rows
    if held is not None:
        (nullable, column, _, test, operand), tested = tested[0], tested[1:]
        verdicts = _verdicts(nullable, test, operand, column)
        if not tested:
            mask = list(verdicts)
            count = mask.count(True)
            if 2 * count >= len(mask):
                take = partial(compress, selectors=mask)
                base = rows.rows() if type(rows) is Columns else rows
                return Columns(Selection(held, take), kinds, count, base, take)
            verdicts = mask
        kept = list(compress(rows, verdicts))
    for nullable, _, position, test, operand in tested:
        kept = list(compress(kept, _verdicts(nullable, test, operand, map(itemgetter(position), kept))))
    out = Batch(kept)
    out.kinds = kinds
    if held is not None:
        out.columns = Transposed(kept, None)
    return out


_FLOATS = frozenset((float, type(None)))


def _verdicts(nullable: bool, test: Callable, operand, column):
    """Whether each value of `column` passes `test(operand, value)`; a NULL never does."""
    if nullable:
        return [value is not None and test(operand, value) for value in column]
    return map(test, repeat(operand), column)


class Selection:
    """The columns of some of the rows held as `held` (a `Batch.columns`):
    `take` yields their values off each held column."""

    __slots__ = ("held", "take")

    def __init__(self, held, take: Callable):
        self.held = held
        self.take = take

    def column(self, position: int) -> Optional[list]:
        values = self.held.column(position)
        return None if values is None else list(self.take(values))


class Transposed:
    """The columns of a list of rows - those at `positions`, or all (None) -
    each gathered off them when asked for."""

    __slots__ = ("rows", "positions")

    def __init__(self, rows: list, positions: Optional[Sequence[int]]):
        self.rows = rows
        self.positions = positions

    def column(self, position: int) -> list:
        at = position if self.positions is None else self.positions[position]
        return list(map(itemgetter(at), self.rows))


class Lowered:
    """A row expression as an operator holds it: compiled (`fn`) and printed
    (`str`) when first asked for - a prepared statement answers most from an
    index or its passes, and is seldom explained. One that reads a slot (holds
    a `Param`) is compiled and printed per call, for the values given
    (`fn_for`, `text`). Threads may race to derive either; an attribute
    only ever holds a finished one. A hand-built operator wraps the callable
    and label it was given."""

    __slots__ = ("expr", "schema", "_fn", "_text", "_slotted")

    def __init__(self, expr: Optional[Expr], schema: Optional[RelSchema], fn=None, text=None):
        self.expr = expr
        self.schema = schema
        self._fn = fn
        self._text = text
        self._slotted = None

    @classmethod
    def of(cls, given, text: str = "") -> "Lowered":
        return given if isinstance(given, Lowered) else cls(None, None, given, text)

    @property
    def slotted(self) -> bool:
        """Whether the expression reads a slot of its statement."""
        if self._slotted is None:
            self._slotted = self.expr is not None and any(node.__class__ is Param for node in walk(self.expr))
        return self._slotted

    @property
    def fn(self) -> Optional[Callable]:
        if self._fn is None and self.expr is not None:
            self._fn = compile_expr(self.expr, self.schema)
        return self._fn

    def fn_for(self, values: tuple) -> Optional[Callable]:
        """The compiled expression for a run with `values`."""
        if self._fn is None and self.slotted:
            return compile_expr(with_values(self.expr, values), self.schema)
        return self.fn

    def text(self, values: tuple = ()) -> str:
        """The expression printed, each `Param` its constant in `values`."""
        if self._text is None:
            if self.slotted:
                return printed(self.expr, values)
            self._text = str(self.expr)
        return self._text

    def __str__(self):
        return self.text()


class PhysicalOp:
    """Base physical operator: `schema`, `run(values) -> list[tuple]`, children.
    `values` are what the tree's `Param`s stand for: none in a slot-free tree."""

    schema: RelSchema
    #: whether `run()` returns a list it built in that run (a scan's, a
    #: fetch's or a `ValuesOp`'s belongs to someone else)
    fresh = False

    @property
    def children(self) -> tuple["PhysicalOp", ...]:
        return ()

    def run(self, values: tuple = ()) -> list[tuple]:
        raise NotImplementedError

    def relation(self, values: tuple = ()) -> Relation:
        return Relation.adopt(self.schema, self.run(values))

    def explain_label(self, values: tuple = ()) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0, values: tuple = ()) -> str:
        lines = ["  " * indent + self.explain_label(values)]
        for child in self.children:
            lines.append(child.explain(indent + 1, values))
        return "\n".join(lines)


class SeqScan(PhysicalOp):
    """Full scan of a storage table."""

    def __init__(self, table, binding: str):
        self.table = table
        self.binding = binding
        self.schema = table.schema.with_qualifier(binding)

    def run(self, values=()):
        """The live rows, holding the table's `Mirror` as their columns and
        kinds - none if a write landed while they were read."""
        table = self.table
        version = table.version  # read before the rows, compared after
        rows = table.live_rows()
        if table.version == version:
            rows.kinds = rows.columns = Mirror(table, version)
        return rows

    def explain_label(self, values=()):
        return f"SeqScan({self.table.name} AS {self.binding})"


class IndexEqScan(PhysicalOp):
    """Point lookup through a hash or sorted index: of `value`, or of the
    run's constant where `value` is a `Param`."""

    def __init__(self, table, binding: str, column: str, value):
        self.table = table
        self.binding = binding
        self.column = column
        self.value = value
        self.schema = table.schema.with_qualifier(binding)

    def run(self, values=()):
        value = self.value
        if value.__class__ is Param:
            value = value.value_in(values).value
        version = self.table.version
        return self.table.vouch(version, self.table.lookup(self.column, value))

    def explain_label(self, values=()):
        value = self.value
        if value.__class__ is Param:
            value = value.value_in(values).value if values else value.slot
        return f"IndexEqScan({self.table.name}.{self.column} = {value!r})"


class IndexRangeScan(PhysicalOp):
    """Range scan through a sorted index."""

    def __init__(
        self,
        table,
        binding: str,
        column: str,
        low=None,
        high=None,
        include_low: bool = True,
        include_high: bool = True,
    ):
        self.table = table
        self.binding = binding
        self.column = column
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.schema = table.schema.with_qualifier(binding)

    def run(self, values=()):
        version = self.table.version
        index = self.table.index_on(self.column)
        rids = index.range(self.low, self.high, self.include_low, self.include_high)
        return self.table.vouch(version, Batch(map(self.table.row_by_id, rids)))

    def explain_label(self, values=()):
        low = "" if self.low is None else f"{self.low!r} <{'=' if self.include_low else ''} "
        high = "" if self.high is None else f" <{'=' if self.include_high else ''} {self.high!r}"
        return f"IndexRangeScan({self.table.name}.{self.column}: {low}x{high})"


class ValuesOp(PhysicalOp):
    """A constant relation (used by federation to inline fetched results)."""

    def __init__(self, schema: RelSchema, rows: Sequence[tuple], label: str = "Values"):
        self.schema = schema
        self._rows = [tuple(row) for row in rows]
        self._label = label

    def run(self, values=()):
        return list(self._rows)

    def explain_label(self, values=()):
        return f"{self._label}({len(self._rows)} rows)"


class RelabelOp(PhysicalOp):
    """Free schema relabel (alias/rename); rows pass through untouched."""

    def __init__(self, child: PhysicalOp, schema: RelSchema, label: str = "Relabel"):
        self.child = child
        self.schema = schema
        self._label = label

    @property
    def children(self):
        return (self.child,)

    @property
    def fresh(self):
        return self.child.fresh

    def run(self, values=()):
        return self.child.run(values)

    def explain_label(self, values=()):
        return self._label


class FilterOp(PhysicalOp):
    """Keeps the rows `predicate` (a `Lowered`, or a compiled `row -> value`)
    finds true: through `passes` where the executor derived them, through the
    closure when a guard fails."""

    fresh = True

    def __init__(self, child: PhysicalOp, predicate, description: str = "", passes=None):
        self.child = child
        self.predicate = Lowered.of(predicate, description)
        self.passes = passes
        self.schema = child.schema

    @property
    def children(self):
        return (self.child,)

    @property
    def description(self) -> str:
        return str(self.predicate)

    def run(self, values=()):
        rows = self.child.run(values)
        kept = None if self.passes is None else run_filter_passes(self.passes, rows, values)
        if kept is None:
            predicate = self.predicate.fn_for(values)
            kept = vouched([row for row in rows if predicate(row)], getattr(rows, "kinds", None))
        return kept

    def explain_label(self, values=()):
        return f"Filter({self.predicate.text(values)})"


class ProjectOp(PhysicalOp):
    """Builds its rows' tuples: `to_tuples` is `pick_columns(...)` or
    `eval_columns(...)`. Lowering makes one of plain columns only where rows
    leave a tree, or as the input of a DISTINCT, a union or a bind join;
    any other consumer reads the pick's columns where they sit."""

    fresh = True

    def __init__(self, child: PhysicalOp, to_tuples: Callable, schema: RelSchema, description: str = ""):
        self.child = child
        self.to_tuples = to_tuples
        self.schema = schema
        self.description = description

    @property
    def children(self):
        return (self.child,)

    def run(self, values=()):
        return self.to_tuples(self.child.run(values))

    def explain_label(self, values=()):
        return f"Project({self.description})"


class HashJoinOp(PhysicalOp):
    """Hash join on equi-key positions; supports INNER and LEFT.

    Builds on the right input, probes with the left. A residual predicate
    (compiled against the concatenated schema) filters matches; for LEFT
    joins, unmatched probe rows are padded with NULLs. Under a plain-column
    pick it emits only the picked columns (`emitting`, `pick`).
    """

    fresh = True
    #: positions of the joined row this join hands out, as `Columns` (None: every row whole)
    pick: Optional[tuple] = None

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        left_key_positions: Sequence[int],
        right_key_positions: Sequence[int],
        kind: str = "INNER",
        residual_fn=None,
        description="",
    ):
        self.left = left
        self.right = right
        self.left_keys = join_keys(left_key_positions)
        self.right_keys = join_keys(right_key_positions)
        self.kind = kind
        self.residual = Lowered.of(residual_fn)
        self.description = description  # of the whole condition: a `str`, or a `Lowered` never run
        self.schema = left.schema.concat(right.schema)
        self.widths = (len(left.schema), len(right.schema))

    @property
    def children(self):
        return (self.left, self.right)

    def emitting(self, positions: Sequence[int], schema: RelSchema) -> "HashJoinOp":
        """This join, handing out only the columns at `positions` of its
        joined rows, as `Columns` of `schema`. Narrowed in place: lowering
        asks it of a join it has just built, before any tree holds it (the
        hub lowers once per query, so a copy would be paid per query)."""
        self.pick, self.schema = tuple(positions), schema
        return self

    def run(self, values=()):
        right_rows = self.right.run(values)
        left_rows = self.left.run(values)
        return hash_join(
            left_rows, self.left_keys(left_rows), right_rows, self.right_keys(right_rows),
            self.kind, self.residual.fn_for(values), self.widths, self.pick,
        )

    def explain_label(self, values=()):
        description = self.description
        if description.__class__ is Lowered:
            description = description.text(values)
        return f"HashJoin[{self.kind}]({description})"


class NestedLoopJoinOp(PhysicalOp):
    """Fallback join for non-equi or missing conditions."""

    fresh = True

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        condition_fn=None,
        kind: str = "INNER",
        description: str = "",
    ):
        self.left = left
        self.right = right
        self.condition = Lowered.of(condition_fn, description)
        self.kind = kind
        self.schema = left.schema.concat(right.schema)

    @property
    def children(self):
        return (self.left, self.right)

    def run(self, values=()):
        right_rows = self.right.run(values)
        out: list[tuple] = []
        null_pad = (None,) * len(self.right.schema)
        condition = self.condition.fn_for(values)
        for row in self.left.run(values):
            matched = False
            for other in right_rows:
                combined = row + other
                if condition is not None and not condition(combined):
                    continue
                out.append(combined)
                matched = True
            if not matched and self.kind == "LEFT":
                out.append(row + null_pad)
        return out

    def explain_label(self, values=()):
        return f"NestedLoopJoin[{self.kind}]({self.condition.text(values)})"


class HashAggregateOp(PhysicalOp):
    """Group-by hash aggregation: partition the rows by key, then fold each
    aggregate over each group, groups in order of first appearance.

    `group_keys` is None for a global aggregate, the position of the one
    plain column grouped by, or else the `rows -> list[tuple]` kernel of the
    key expressions. `agg_specs` is a list of `(name, distinct, arg)`: `arg`
    None means COUNT(*) semantics (every row counts), an int reads that
    column, anything else is a compiled `row -> value`. Each spec is resolved
    here, once, to `(fold, distinct, arg)`, its fold the name's in
    `AGGREGATE_FUNCTIONS`.

    A run reads each group's argument column once, as a list (`map` of an
    `itemgetter`, or of the compiled argument), drops its NULLs with one
    comprehension - skipped for a column the rows vouch holds no NULL - and
    keeps first appearances under DISTINCT (`dict.fromkeys`); the fold then
    sweeps the list in C, in row order. COUNT(*), or COUNT of a column
    vouched NULL-free, is the group's length.

    Positions and compiled readers address the child's rows as they are: a
    plain-column `Project` below is never built, its columns are read where
    they sit in the rows under it (a scan's, say).
    """

    fresh = True

    def __init__(
        self,
        child: PhysicalOp,
        group_keys,
        agg_specs: Sequence[tuple],
        schema: RelSchema,
        description: str = "",
    ):
        self.child = child
        self.group_keys = group_keys
        self.folds = [
            (AGGREGATE_FUNCTIONS[name.upper()], distinct, arg) for name, distinct, arg in agg_specs
        ]
        self.schema = schema
        self.description = description

    @property
    def children(self):
        return (self.child,)

    def run(self, values=()):
        rows = self.child.run(values)
        by = self.group_keys
        bare_key = isinstance(by, int)
        groups: dict = defaultdict(list)
        if by is None:
            # Global aggregate: one group, and one row even over zero rows.
            groups[()] = rows
        elif bare_key:
            for row in rows:
                groups[row[by]].append(row)
        else:
            for key, row in zip(by(rows), rows):
                groups[key].append(row)
        kinds = getattr(rows, "kinds", None)
        folds = [_fold_of(fold, distinct, arg, kinds) for fold, distinct, arg in self.folds]
        out = []
        for key, members in groups.items():
            results = []
            for fold, distinct, read, nullable in folds:
                if fold is None:
                    results.append(len(members))
                    continue
                if read is None:  # `*`: a 1 per row
                    values = [1] * len(members)
                elif nullable:
                    values = [value for value in map(read, members) if value is not None]
                else:
                    values = list(map(read, members))
                if distinct:
                    values = list(dict.fromkeys(values))
                results.append(fold(values))
            out.append(((key,) if bare_key else key) + tuple(results))
        return out

    def explain_label(self, values=()):
        return f"HashAggregate({self.description})"


def _fold_of(fold, distinct, arg, kinds):
    """`(fold, distinct, read, nullable)` of one aggregate over rows vouching
    `kinds`: `read` None for `*`, `nullable` whether the values read may hold
    a NULL - False only for a column whose vouch excludes it. A missing or
    stale vouch is no evidence. `fold` None: the group's length answers."""
    nullable = arg is not None
    read = arg
    if isinstance(arg, int):
        read = itemgetter(arg)
        vouch = None if kinds is None else kinds[arg]
        nullable = vouch.__class__ is not frozenset or type(None) in vouch
    if fold is len and not distinct and not nullable:
        fold = None
    return fold, distinct, read, nullable


def _nulls_low(fn: Callable) -> Callable:
    """The sort key of `fn`'s value that orders NULL below everything."""

    def sort_key(row):
        value = fn(row)
        return (value is not None, value if value is not None else 0)

    return sort_key


class SortOp(PhysicalOp):
    """Multi-key sort. ASC places NULLs first, DESC places them last."""

    fresh = True

    def __init__(self, child: PhysicalOp, key_fns: Sequence[Callable], ascendings: Sequence[bool], description: str = ""):
        self.child = child
        self.schema = child.schema
        self.description = description
        #: `(key, reverse)` per pass of `run()`, least-significant key first
        self.passes = [
            (_nulls_low(fn), not ascending)
            for fn, ascending in reversed(list(zip(key_fns, ascendings)))
        ]

    @property
    def children(self):
        return (self.child,)

    def run(self, values=()):
        rows = self.child.run(values)
        # Successive stable sorts of a copy; the child's list is its own.
        out = vouched(Batch(rows), getattr(rows, "kinds", None))
        for sort_key, reverse in self.passes:
            out.sort(key=sort_key, reverse=reverse)
        return out

    def explain_label(self, values=()):
        return f"Sort({self.description})"


class LimitOp(PhysicalOp):
    fresh = True

    def __init__(self, child: PhysicalOp, limit: int):
        self.child = child
        self.limit = limit
        self.schema = child.schema

    @property
    def children(self):
        return (self.child,)

    def run(self, values=()):
        rows = self.child.run(values)
        return vouched(rows[: self.limit], getattr(rows, "kinds", None))

    def explain_label(self, values=()):
        return f"Limit({self.limit})"


class DistinctOp(PhysicalOp):
    fresh = True

    def __init__(self, child: PhysicalOp):
        self.child = child
        self.schema = child.schema

    @property
    def children(self):
        return (self.child,)

    def run(self, values=()):
        rows = self.child.run(values)
        # first appearances, in order: a dict's keys
        return vouched(Batch(dict.fromkeys(rows)), getattr(rows, "kinds", None))


class UnionAllOp(PhysicalOp):
    fresh = True

    def __init__(self, inputs: Sequence[PhysicalOp]):
        self.inputs = list(inputs)
        self.schema = self.inputs[0].schema

    @property
    def children(self):
        return tuple(self.inputs)

    def run(self, values=()):
        out: list[tuple] = []
        for child in self.inputs:
            out.extend(child.run(values))
        return out
