"""Differential oracle: the operator kernels vs the row-at-a-time operators.

The `ref_*` functions below are the `run()` bodies of `ProjectOp`,
`HashAggregateOp`, `HashJoinOp`, `BindJoinOp` and `FilterOp`, and the
bodies of `Relation.__init__` / `Relation.size_bytes`, as they stood before
the kernels (one key tuple, one closure call and one `zip` per row);
`ref_aggregate` feeds the `Aggregate` classes the folds replaced, value by
value. Hypothesis drives both with rows over every scalar the wire model
knows - mixed types in one column included - through `LocalEngine.lower()`,
so which kernel is picked from which logical node is part of what is
checked. Answers are compared **in order** by `repr` (float bits, -0.0,
which of `1` / `1.0` / `True` represents a group, and group order all
count), failures by exception type and message.

One thing is deliberately not the same: when *several* values would make an
aggregate raise, the kernel reports the first in (group, aggregate, row)
order where the old loop reported the first in (row, aggregate) order - and
within one aggregate of one group, a compiled argument that raises on any
row before a value its fold cannot take, as the group's column is read
whole before it is folded. Aggregate arguments here are therefore drawn
from one type family per example; `test_a_failing_aggregate_value_raises_its_own_error` pins the
single-failure case.
"""

import datetime
import gc
import importlib.util
import math
import pathlib
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.common.errors import SchemaError, TypeMismatchError
from repro.common.relation import Batch, Relation, vouched
from repro.common.schema import Column, RelSchema
from repro.common.types import DataType as T
from repro.common.types import row_size
from repro.engine import LocalEngine
from repro.engine import physical
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
from repro.engine.physical import (
    DistinctOp,
    FilterOp,
    LimitOp,
    PhysicalOp,
    ProjectOp,
    RelabelOp,
    SeqScan,
    ValuesOp,
    run_filter_passes,
)
from repro.federation import EngineConfig
from repro.federation.nodes import LogicalBindJoin
from repro.netsim import SimClock
from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    OrderItem,
    SelectItem,
    Star,
    and_all,
)
from repro.sql.eval import compile_expr, compile_predicate
from repro.storage import Database, Table

# --- the pre-kernel operators -------------------------------------------------

# The aggregates `HashAggregateOp` fed value by value, and the lookup that made
# them, as `repro.sql.functions` held them before the folds replaced them.


class Aggregate:
    """Incremental aggregate: add values one at a time, then finish().

    NULLs are skipped per SQL semantics (except COUNT(*) which is handled by
    the engine feeding a non-NULL marker).
    """

    def add(self, value) -> None:
        raise NotImplementedError

    def finish(self):
        raise NotImplementedError


class CountAgg(Aggregate):
    def __init__(self):
        self.count = 0

    def add(self, value):
        if value is not None:
            self.count += 1

    def finish(self):
        return self.count


class SumAgg(Aggregate):
    def __init__(self):
        self.total = None

    def add(self, value):
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def finish(self):
        return self.total


class AvgAgg(Aggregate):
    def __init__(self):
        self.total = 0.0
        self.count = 0

    def add(self, value):
        if value is None:
            return
        self.total += value
        self.count += 1

    def finish(self):
        return self.total / self.count if self.count else None


class MinAgg(Aggregate):
    def __init__(self):
        self.best = None

    def add(self, value):
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def finish(self):
        return self.best


class MaxAgg(Aggregate):
    def __init__(self):
        self.best = None

    def add(self, value):
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def finish(self):
        return self.best


class DistinctAgg(Aggregate):
    """Wraps another aggregate, feeding it each distinct value once."""

    def __init__(self, inner: Aggregate):
        self.inner = inner
        self.seen: set = set()

    def add(self, value):
        if value is None or value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def finish(self):
        return self.inner.finish()


AGGREGATE_FUNCTIONS = {
    "COUNT": CountAgg,
    "SUM": SumAgg,
    "AVG": AvgAgg,
    "MIN": MinAgg,
    "MAX": MaxAgg,
}


def is_aggregate_name(name: str) -> bool:
    return name.upper() in AGGREGATE_FUNCTIONS


def make_aggregate(name: str, distinct: bool = False) -> Aggregate:
    cls = AGGREGATE_FUNCTIONS.get(name.upper())
    if cls is None:
        raise TypeMismatchError(f"unknown aggregate {name!r}")
    agg = cls()
    return DistinctAgg(agg) if distinct else agg




def ref_project(fns, rows):
    return [tuple(fn(row) for fn in fns) for row in rows]


def ref_aggregate(group_fns, agg_specs, rows):
    """`agg_specs`: `(name, distinct, arg_fn)`, `arg_fn` None for COUNT(*)."""
    groups: dict = {}
    for row in rows:
        key = tuple(fn(row) for fn in group_fns)
        aggs = groups.get(key)
        if aggs is None:
            aggs = [make_aggregate(name, distinct) for name, distinct, _ in agg_specs]
            groups[key] = aggs
        for agg, (_, _, arg_fn) in zip(aggs, agg_specs):
            agg.add(1 if arg_fn is None else arg_fn(row))
    if not groups and not group_fns:
        aggs = [make_aggregate(name, distinct) for name, distinct, _ in agg_specs]
        groups[()] = aggs
    return [key + tuple(agg.finish() for agg in aggs) for key, aggs in groups.items()]


def ref_hash_join(left_rows, right_rows, left_positions, right_positions, kind, residual, right_width):
    table: dict = {}
    for row in right_rows:
        key = tuple(row[i] for i in right_positions)
        if any(part is None for part in key):
            continue
        table.setdefault(key, []).append(row)
    out = []
    null_pad = (None,) * right_width
    for row in left_rows:
        key = tuple(row[i] for i in left_positions)
        matches = [] if any(part is None for part in key) else table.get(key, [])
        matched = False
        for other in matches:
            combined = row + other
            if residual is not None and not residual(combined):
                continue
            out.append(combined)
            matched = True
        if not matched and kind == "LEFT":
            out.append(row + null_pad)
    return out


def ref_bind_join(left_rows, key_position, bind_fetch, right_position, kind, residual, fetch_width):
    """Returns the joined rows; `bind_fetch(keys)` sees the keys collected."""
    keys: list = []
    seen: set = set()
    for row in left_rows:
        value = row[key_position]
        if value is not None and value not in seen:
            seen.add(value)
            keys.append(value)
    table: dict = {}
    for row in bind_fetch(keys):
        value = row[right_position]
        if value is not None:
            table.setdefault(value, []).append(row)
    out = []
    null_pad = (None,) * fetch_width
    for row in left_rows:
        matches = table.get(row[key_position], [])
        matched = False
        for other in matches:
            combined = row + other
            if residual is not None and not residual(combined):
                continue
            out.append(combined)
            matched = True
        if not matched and kind == "LEFT":
            out.append(row + null_pad)
    return out


def ref_filter(predicate, rows):
    """`predicate` is `compile_predicate(...)`: one closure call per row."""
    return [row for row in rows if predicate(row)]


def ref_relation_rows(schema, rows):
    rows = [tuple(row) for row in rows]
    for row in rows:
        if len(row) != len(schema):
            raise SchemaError(
                f"row width {len(row)} does not match schema width {len(schema)}"
            )
    return rows


def ref_size_bytes(rows):
    return sum(row_size(row) for row in rows)


# --- harness ------------------------------------------------------------------


class Rows(LogicalPlan):
    """A leaf of literal rows; lowers itself to a `ValuesOp`."""

    def __init__(self, qualifier, rows, width):
        self.schema = RelSchema(Column(f"c{i}", T.ANY, qualifier) for i in range(width))
        self.rows = rows

    def lower_physical(self, engine, context=None):
        return ValuesOp(self.schema, self.rows)


ENGINE = LocalEngine(Database("oracle"))


def col(i, qualifier="t"):
    return ColumnRef(f"c{i}", qualifier)


def outcome(thunk):
    """("ok", rows by repr, in order) or ("raise", type, message)."""
    try:
        return ("ok", [repr(row) for row in thunk()])
    except Exception as exc:  # type and message are what is compared
        return ("raise", type(exc), str(exc))


NAN = float("nan")
numbers = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**64]),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.1, 0.5, -0.0, NAN, float("inf"), float("-inf"), 1e16, -1e16]),
    st.floats(allow_nan=True, allow_infinity=True),
)
strings = st.one_of(st.none(), st.sampled_from(["", "a", "b", "é", "日本", "1"]))
dates = st.one_of(
    st.none(),
    st.sampled_from(
        [datetime.date(2005, 6, 14), datetime.date(2005, 6, 15), datetime.date(1999, 1, 1)]
    ),
)
datetimes = st.one_of(  # `datetime.datetime` is a `date` subclass
    st.none(),
    st.sampled_from([datetime.datetime(2005, 6, 14), datetime.datetime(2005, 6, 14, 12, 30)]),
)
#: any scalar in any position: every one of them hashes
scalars = st.one_of(numbers, strings, dates, datetimes)


def tables(width, values=scalars, max_size=14):
    return st.lists(st.tuples(*[values] * width), max_size=max_size)


# --- projection ---------------------------------------------------------------

#: an item of a select list: mostly plain columns, now and then computed
project_items = st.one_of(
    st.integers(0, 3).map(col),
    st.integers(0, 3).map(col),
    st.integers(0, 3).map(col),
    st.just(Literal(7)),
    st.integers(0, 3).map(lambda i: BinaryOp("+", col(i), Literal(1))),  # may raise
    st.integers(0, 3).map(lambda i: IsNull(col(i))),
)


@given(rows=tables(4), exprs=st.lists(project_items, min_size=1, max_size=5))
@example(rows=[(1, "a", None, 2.5)], exprs=[col(2)])  # one column: 1-tuples
@example(rows=[(1, "a", None, 2.5)], exprs=[col(3), col(0), col(3), col(3)])
@example(rows=[], exprs=[col(0), col(1)])
@example(rows=[(1, 2, 3, 4), ("a", 2, 3, 4)], exprs=[col(1), BinaryOp("+", col(0), Literal(1))])
@settings(max_examples=300, deadline=None)
def test_projection_matches_per_value_closures(rows, exprs):
    leaf = Rows("t", rows, 4)
    op = ENGINE.lower(LogicalProject(leaf, [SelectItem(expr, f"o{i}") for i, expr in enumerate(exprs)]))
    fns = [compile_expr(expr, leaf.schema) for expr in exprs]
    expected = outcome(lambda: ref_project(fns, rows))
    assert outcome(op.run) == expected
    if expected[0] == "ok":
        assert all(type(row) is tuple and len(row) == len(exprs) for row in op.run())


# --- aggregation --------------------------------------------------------------

#: argument family -> aggregates that fold it without raising (SUM of
#: strings concatenates - a fold whose *order* shows in the answer)
FAMILIES = {
    "numbers": (numbers, ["COUNT", "SUM", "AVG", "MIN", "MAX"]),
    "strings": (strings, ["COUNT", "SUM", "MIN", "MAX"]),
    "dates": (dates, ["COUNT", "MIN", "MAX"]),
    "datetimes": (datetimes, ["COUNT", "MIN", "MAX"]),
}

#: group-by expressions over the two key columns c0, c1 (any scalar): plain
#: columns take the pick kernels, computed ones the closures; none raises
group_exprs = st.lists(
    st.sampled_from(
        [col(0), col(1), IsNull(col(0)), FuncCall("COALESCE", (col(0), col(1)))]
    ),
    max_size=3,
)


@st.composite
def aggregate_cases(draw):
    values, names = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    rows = draw(st.lists(st.tuples(scalars, scalars, values, values), max_size=16))
    args = st.one_of(
        st.just(Star()),
        st.sampled_from([col(2), col(3)]),
        st.just(FuncCall("COALESCE", (col(2), col(3)))),
    )
    calls = []
    for _ in range(draw(st.integers(1, 4))):
        arg = draw(args)
        name = "COUNT" if isinstance(arg, Star) else draw(st.sampled_from(names))
        distinct = False if isinstance(arg, Star) else draw(st.booleans())
        calls.append(FuncCall(name, (arg,), distinct))
    return rows, draw(group_exprs), calls


def run_both_aggregates(rows, groups, calls, leaf=None):
    """`leaf`: what hands `rows` over (a `VouchedRows`, say); a `Rows` if None."""
    leaf = leaf or Rows("t", rows, 4)
    plan = LogicalAggregate(
        leaf, groups, [f"g{i}" for i in range(len(groups))],
        calls, [f"a{i}" for i in range(len(calls))],
    )
    specs = [
        (
            call.name, call.distinct,
            None if isinstance(call.args[0], Star) else compile_expr(call.args[0], leaf.schema),
        )
        for call in calls
    ]
    group_fns = [compile_expr(expr, leaf.schema) for expr in groups]
    return (
        outcome(ENGINE.lower(plan).run),
        outcome(lambda: ref_aggregate(group_fns, specs, rows)),
    )


@given(case=aggregate_cases())
@settings(max_examples=400, deadline=None)
def test_aggregation_matches_row_at_a_time_loop(case):
    kernel, reference = run_both_aggregates(*case)
    assert kernel == reference


def count(arg, distinct=False):
    return FuncCall("COUNT", (arg,), distinct)


@pytest.mark.parametrize(
    "rows, groups, calls, expected",
    [
        # NULL group keys form a group; groups come in order of first appearance
        (
            [(None, 0, 1, 0), ("b", 0, 2, 0), (None, 0, 3, 0), ("a", 0, 4, 0)],
            [col(0)], [FuncCall("SUM", (col(2),))],
            [(None, 4), ("b", 2), ("a", 4)],
        ),
        # the first of 1 / 1.0 / True names the group
        ([(1.0, 0, 1, 0), (1, 0, 1, 0), (True, 0, 1, 0)], [col(0)], [count(Star())], [(1.0, 3)]),
        # COUNT(x) skips NULLs, COUNT(*) does not, DISTINCT collapses 2 and 2.0
        (
            [("a", 0, 2, 0), ("a", 0, None, 0), ("a", 0, 2.0, 0), ("a", 0, 3, 0)],
            [col(0)], [count(Star()), count(col(2)), count(col(2), distinct=True)],
            [("a", 4, 3, 2)],
        ),
        # a global aggregate over zero rows yields one row ...
        ([], [], [count(Star()), FuncCall("SUM", (col(2),)), FuncCall("AVG", (col(2),))], [(0, None, None)]),
        # ... a grouped one none
        ([], [col(0)], [count(Star())], []),
        ([], [col(0), col(1)], [count(Star())], []),
        # several keys; MIN / MAX of a group of NULLs is NULL
        (
            [("a", 1, None, 0), ("a", 2, 5, 0), ("a", 1, None, 0)],
            [col(0), col(1)], [FuncCall("MIN", (col(2),)), FuncCall("MAX", (col(2),))],
            [("a", 1, None, None), ("a", 2, 5, 5)],
        ),
    ],
)
def test_aggregation_corner_answers(rows, groups, calls, expected):
    kernel, reference = run_both_aggregates(rows, groups, calls)
    assert kernel == reference == ("ok", [repr(row) for row in expected])


NULL = type(None)

#: every aggregate over column c2, bare and DISTINCT
EVERY_FOLD = [
    FuncCall(name, (col(2),), distinct)
    for distinct in (False, True) for name in ("COUNT", "SUM", "AVG", "MIN", "MAX")
]
#: group "a" holds 3, 3, 2 and group "b" 1
CLEAN = [("a", 0, 3, 0), ("b", 0, 1, 0), ("a", 0, 3, 0), ("a", 0, 2, 0)]
#: group "a" holds 3, NULL, 3, 1 and group "b" only a NULL
HOLED = [("a", 0, 3, 0), ("b", 0, None, 0), ("a", 0, None, 0), ("a", 0, 3, 0), ("a", 0, 1, 0)]


def c2_vouched(vouch):
    """The vouch a leaf hands c2's rows out with: `"unvouched"` is a plain list."""
    return None if vouch == "unvouched" else (None, None, vouch, None)


@pytest.mark.parametrize(
    "rows, vouches, groups, expected",
    [
        (
            CLEAN, [frozenset({int}), lambda: frozenset({int}), frozenset({int, NULL}), lambda: None, None, "unvouched"],
            [], [(4, 9, 2.25, 1, 3, 3, 6, 2.0, 1, 3)],
        ),
        (
            CLEAN, [frozenset({int}), lambda: frozenset({int}), frozenset({int, NULL}), lambda: None, None, "unvouched"],
            [col(0)], [("a", 3, 8, 8 / 3, 2, 3, 2, 5, 2.5, 2, 3), ("b", 1, 1, 1.0, 1, 1, 1, 1, 1.0, 1, 1)],
        ),
        (
            HOLED, [frozenset({int, NULL}), lambda: frozenset({int, NULL}), lambda: None, None, "unvouched"],
            [], [(3, 7, 7 / 3, 1, 3, 2, 4, 2.0, 1, 3)],
        ),
        (
            HOLED, [frozenset({int, NULL}), lambda: frozenset({int, NULL}), lambda: None, None, "unvouched"],
            [col(0)],
            [("a", 3, 7, 7 / 3, 1, 3, 2, 4, 2.0, 1, 3), ("b", 0, None, None, None, None, 0, None, None, None, None)],
        ),
    ],
)
def test_aggregation_null_corner_answers(rows, vouches, groups, expected):
    """NULLs are dropped before a fold, by the vouch of c2 or by a sweep: a
    vouch that leaves out `NoneType` skips the sweep, and a stale one (its
    callable answers None), a missing one or a plain list is no evidence."""
    for vouch in vouches:
        leaf = VouchedRows("t", rows, 4, c2_vouched(vouch))
        kernel, reference = run_both_aggregates(rows, groups, EVERY_FOLD, leaf)
        assert kernel == reference == ("ok", [repr(row) for row in expected]), vouch


@st.composite
def vouched_aggregate_cases(draw):
    rows, groups, calls = draw(aggregate_cases())
    return rows, groups, calls, draw(sound_vouches(rows, 4))


@given(case=vouched_aggregate_cases())
@settings(max_examples=300, deadline=None)
def test_aggregation_under_any_sound_vouch_matches_the_loop(case):
    rows, groups, calls, kinds = case
    kernel, reference = run_both_aggregates(rows, groups, calls, VouchedRows("t", rows, 4, kinds))
    assert kernel == reference


def test_float_sum_and_avg_stay_a_left_fold():
    """`[0.1] * 10 + [1e16, -1e16]`: a left fold loses the 0.1s into 1e16's
    rounding and answers 0.0 - `math.fsum`, and the builtin `sum()` from 3.12
    on, would answer 1.0. Byte-identical baselines depend on the former."""
    values = [0.1] * 10 + [1e16, -1e16]
    folded = 0.0
    for value in values:
        folded += value
    assert folded != math.fsum(values)
    rows = [("g", 0, value, 0) for value in values]
    calls = [FuncCall("SUM", (col(2),)), FuncCall("AVG", (col(2),))]
    answer = (folded, folded / len(values))
    for groups, key in (([], ()), ([col(0)], ("g",)), ([col(0), col(1)], ("g", 0))):
        kernel, reference = run_both_aggregates(rows, groups, calls)
        assert kernel == reference == ("ok", [repr(key + answer)])


def test_a_failing_aggregate_value_raises_its_own_error():
    rows = [("a", 0, 1, 0), ("b", 0, "x", 0), ("a", 0, 2, 0)]
    for groups in ([], [col(0)]):
        kernel, reference = run_both_aggregates(rows, groups, [FuncCall("AVG", (col(2),))])
        assert kernel == reference
        assert kernel[:2] == ("raise", TypeError)


# --- joins --------------------------------------------------------------------

join_rows = tables(3, st.one_of(scalars, st.integers(0, 2), st.none()), max_size=10)


def left_col(i):
    return col(i, "l")


def right_col(i):
    return col(i, "r")


#: what may follow the equi-conjuncts: nothing, a comparison that never
#: raises (`=` would be taken for one more key), one that raises on mixed
#: types, a NULL test of the padded side
residuals = st.sampled_from(
    [
        None,
        BinaryOp("<>", left_col(2), right_col(2)),
        BinaryOp("<", left_col(2), right_col(2)),
        IsNull(right_col(1), negated=True),
    ]
)


@given(
    left=join_rows, right=join_rows, key_count=st.integers(1, 2),
    kind=st.sampled_from(["INNER", "LEFT"]), residual=residuals,
)
@example(  # NULL keys never match; LEFT pads them
    left=[(None, 0, 0), (1, 0, 0)], right=[(None, 0, 0), (1, 0, 0)],
    key_count=1, kind="LEFT", residual=None,
)
@example(  # a residual that rejects every match still pads under LEFT
    left=[(1, 0, "x")], right=[(1, 0, "x")],
    key_count=1, kind="LEFT", residual=BinaryOp("<>", left_col(2), right_col(2)),
)
@example(  # a NULL in either part of a two-column key
    left=[(1, None, 0), (1, 2, 0)], right=[(1, None, 0), (1, 2, 0), (1, 2, 1)],
    key_count=2, kind="INNER", residual=None,
)
@settings(max_examples=400, deadline=None)
def test_hash_join_matches_tuple_key_loop(left, right, key_count, kind, residual):
    left_leaf, right_leaf = Rows("l", left, 3), Rows("r", right, 3)
    equi = [BinaryOp("=", left_col(i), right_col(i)) for i in range(key_count)]
    condition = and_all(equi + ([residual] if residual is not None else []))
    plan = LogicalJoin(left_leaf, right_leaf, kind, condition)
    op = ENGINE.lower(plan)
    assert op.explain_label().startswith("HashJoin")
    residual_fn = compile_predicate(residual, plan.schema) if residual is not None else None
    positions = list(range(key_count))
    expected = outcome(
        lambda: ref_hash_join(left, right, positions, positions, kind, residual_fn, 3)
    )
    assert outcome(op.run) == expected


class StubExecution:
    """What a `BindJoinOp` asks of its execution: a tag map and `bind_fetch`,
    here answering from `remote` the way the source would (key IN keys)."""

    tags: dict = {}

    def __init__(self, remote):
        self.remote = remote
        self.asked = None

    def bind_fetch(self, node, keys):
        self.asked = list(keys)
        return Relation(node.fetch_schema, self.rows_for(keys))

    def rows_for(self, keys):
        return [row for row in self.remote if row[0] is not None and row[0] in keys]


class StubSource:
    name = "remote"


@given(
    left=join_rows, remote=join_rows,
    kind=st.sampled_from(["INNER", "LEFT"]), residual=residuals,
)
@example(left=[(None, 0, 0), (2, 0, 0), (2, 0, 1)], remote=[(2, 0, 0), (None, 0, 0)], kind="LEFT", residual=None)
@settings(max_examples=300, deadline=None)
def test_bind_join_matches_its_own_old_loop(left, remote, kind, residual):
    left_leaf = Rows("l", left, 3)
    fetch_schema = Rows("r", [], 3).schema
    node = LogicalBindJoin(
        left_leaf, None, StubSource(), fetch_schema, left_col(1), right_col(0),
        kind=kind, residual=residual,
    )
    execution = StubExecution(remote)
    op = node.lower_physical(ENGINE, execution)
    residual_fn = compile_predicate(residual, node.schema) if residual is not None else None
    asked = []

    def bind_fetch(keys):
        asked.extend(keys)
        return execution.rows_for(keys)

    expected = outcome(lambda: ref_bind_join(left, 1, bind_fetch, 0, kind, residual_fn, 3))
    assert outcome(op.run) == expected
    # the same distinct non-NULL keys, in order of first appearance
    assert [repr(key) for key in execution.asked] == [repr(key) for key in asked]


# --- filters ------------------------------------------------------------------


class Tagged(int):
    """An int subclass: an int to `isinstance`, not to an exact-type guard."""


#: what a column mostly holds - on these a guard holds and the passes answer
clean_columns = [
    st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1])),
    st.one_of(st.none(), st.integers(-3, 3).map(float), st.sampled_from([0.5, -0.0, 2.0**53, NAN])),
    st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(float)),  # no NULL: the C-level form
    strings,
    dates,
    st.one_of(st.none(), st.booleans()),
    st.sampled_from([1, 2, 3]),
]
#: ... and what lands in one now and then, so that a guard fails mid-column
wild = st.one_of(
    scalars,
    st.sampled_from([10**400, Tagged(1), Tagged(2**53 + 1)]),
    st.just([1]),  # unhashable
)

literal_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -(2**53), -(2**53) - 1, 10**400]),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.5, -0.0, NAN, float("inf"), float("-inf"), 2.0**53, -(2.0**53)]),
    st.sampled_from(["", "a", "b", "é"]),
    st.sampled_from([datetime.date(2005, 6, 14), datetime.date(2005, 6, 15)]),
    st.just(datetime.datetime(2005, 6, 14)),
    st.just(Tagged(1)),
)
comparators = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
columns = st.integers(0, 2).map(col)
literals = literal_values.map(Literal)

#: conjuncts a pass exists for (when the literal is plain) ...
kernel_conjuncts = st.one_of(
    st.builds(BinaryOp, comparators, columns, literals),
    st.builds(BinaryOp, comparators, literals, columns),
    st.builds(InList, columns, st.lists(literals, min_size=1, max_size=4).map(tuple)),
)
#: ... and conjuncts that keep the whole predicate with its closure
fallback_conjuncts = st.one_of(
    st.builds(lambda a, b: BinaryOp("OR", a, b), kernel_conjuncts, kernel_conjuncts),
    st.builds(Like, columns, st.sampled_from(["a%", "_", "%"]).map(Literal)),
    st.builds(Between, columns, literals, literals),
    st.builds(InList, columns, st.lists(literals, min_size=1, max_size=3).map(tuple), st.just(True)),
    st.builds(InList, columns, st.tuples(literals, columns)),
    st.builds(BinaryOp, comparators, columns, columns),
    st.builds(lambda op, c, v: BinaryOp(op, BinaryOp("+", c, Literal(1)), v), comparators, columns, literals),
    st.builds(IsNull, columns, st.booleans()),
)


@st.composite
def filter_cases(draw):
    families = [draw(st.sampled_from(clean_columns)) for _ in range(3)]
    rows = draw(st.lists(st.tuples(*families), max_size=12))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if rows:
            target = draw(st.integers(0, len(rows) - 1))
            row = list(rows[target])
            row[draw(st.integers(0, 2))] = draw(wild)
            rows[target] = tuple(row)
    conjuncts = draw(
        st.lists(
            st.one_of(kernel_conjuncts, kernel_conjuncts, kernel_conjuncts, fallback_conjuncts),
            min_size=1, max_size=3,
        )
    )
    return rows, conjuncts


def run_both_filters(rows, conjuncts):
    leaf = Rows("t", rows, 3)
    predicate = and_all(conjuncts)
    op = ENGINE.lower(LogicalFilter(leaf, predicate))
    assert type(op) is FilterOp and op.explain_label() == f"Filter({predicate})"
    reference = compile_predicate(predicate, leaf.schema)
    return op, outcome(op.run), outcome(lambda: ref_filter(reference, rows))


@given(case=filter_cases())
# a NULL first conjunct still evaluates the second, which raises
@example(case=([(None, "x", 0), (5, 1, 0)], [BinaryOp(">", col(0), Literal(1)), BinaryOp("<", col(1), Literal(2))]))
# ... a FALSE one does not
@example(case=([(0, "x", 0), (5, 1, 0)], [BinaryOp(">", col(0), Literal(1)), BinaryOp("<", col(1), Literal(2))]))
# float(2**53 + 1) rounds down to the literal: an int under a float literal
@example(case=([(2**53 + 1, 0, 0)], [BinaryOp("=", col(0), Literal(2.0**53))]))
# ... and float(literal) rounds down to the value: an int literal beyond 2**53
@example(case=([(2.0**53, 0, 0), (2**53 + 1, 0, 0)], [BinaryOp("=", col(0), Literal(2**53 + 1))]))
@example(case=([(10**400, 0, 0)], [BinaryOp("<", col(0), Literal(0.5))]))  # OverflowError
@example(case=([(True, 0, 0), (1, 0, 0)], [BinaryOp("=", col(0), Literal(1))]))  # a bool under an int literal
@example(case=([(datetime.datetime(2005, 6, 14), 0, 0)], [BinaryOp("<", col(0), Literal(datetime.date(2005, 6, 15)))]))
@example(case=([(datetime.datetime(2005, 6, 14), 0, 0)], [BinaryOp("=", col(0), Literal(datetime.date(2005, 6, 14)))]))
@example(case=([(2**53 + 1, 0, 0), (1, 0, 0)], [InList(col(0), (Literal(2.0**53), Literal(1)))]))
@example(case=([([1], 0, 0)], [InList(col(0), (Literal(1),))]))
@example(case=([(NAN, 0, 0), (1.0, 0, 0)], [BinaryOp("<>", col(0), Literal(NAN))]))
@example(case=([(1, 0, 0), (None, 0, 0), (2.5, 0, 0)], [BinaryOp("=", col(0), Literal(True))]))
@settings(max_examples=600, deadline=None)
def test_filter_passes_match_the_compiled_predicate(case):
    _, kernel, reference = run_both_filters(*case)
    assert kernel == reference


FALSE, TRUE = Literal(False), Literal(True)
D14, D15 = datetime.date(2005, 6, 14), datetime.date(2005, 6, 15)


@pytest.mark.parametrize(
    "rows, conjuncts, expected",
    [
        # the q8 shape: a bool literal, then an int literal over a float column
        (
            [(False, 2500.0, 0), (True, 3000.0, 0), (False, 2000.0, 0), (None, 9e9, 0), (False, None, 0)],
            [BinaryOp("=", col(0), FALSE), BinaryOp(">", col(1), Literal(2000))],
            [(False, 2500.0, 0)],
        ),
        # literal on the left: 2 < c0 keeps what c0 > 2 keeps
        ([(1, 0, 0), (3, 0, 0), (2.5, 0, 0), (None, 0, 0)], [BinaryOp("<", Literal(2), col(0))], [(3, 0, 0), (2.5, 0, 0)]),
        # NULL is dropped by <> as by every comparison; NaN <> 1 holds
        ([(1.0, 0, 0), (None, 0, 0), (NAN, 0, 0)], [BinaryOp("<>", col(0), Literal(1.0))], [(NAN, 0, 0)]),
        # 1 / 1.0 / TRUE are one key; a NULL item changes no survivor
        ([(1, 0, 0), (1.0, 0, 0), (True, 0, 0), (None, 0, 0), ("1", 0, 0)], [InList(col(0), (Literal(1), Literal(None)))], [(1, 0, 0), (1.0, 0, 0), (True, 0, 0)]),
        ([("a", D14, 0), ("é", D15, 0), (None, D15, 0)], [BinaryOp(">=", col(0), Literal("a")), BinaryOp("=", col(1), Literal(D15))], [("é", D15, 0)]),
        # every row survives / none does / there is none
        ([(1, 0, 0), (2, 0, 0)], [BinaryOp(">", col(0), Literal(0))], [(1, 0, 0), (2, 0, 0)]),
        ([(1, 0, 0), (2, 0, 0)], [BinaryOp(">", col(0), Literal(5)), BinaryOp("=", col(1), Literal(0))], []),
        ([], [BinaryOp(">", col(0), Literal(5))], []),
    ],
)
def test_filter_pass_answers(rows, conjuncts, expected):
    """Clean columns: the passes themselves answer, not the fallback."""
    op, kernel, reference = run_both_filters(rows, conjuncts)
    assert run_filter_passes(op.passes, rows) is not None
    assert kernel == reference == ("ok", [repr(row) for row in expected])


@pytest.mark.parametrize(
    "conjunct, has_passes",
    [
        (BinaryOp("=", col(0), Literal(1)), True),
        (BinaryOp(">=", Literal("a"), col(1)), True),
        (BinaryOp("<>", col(0), Literal(NAN)), True),
        (BinaryOp("=", col(0), TRUE), True),
        (InList(col(0), (Literal(1), Literal(2.5), Literal(None))), True),
        (BinaryOp("=", col(0), Literal(None)), False),
        (BinaryOp("=", col(0), Literal(2**53 + 1)), False),
        (BinaryOp("=", col(0), Literal(datetime.datetime(2005, 6, 14))), False),
        (BinaryOp("=", col(0), Literal(Tagged(1))), False),
        (BinaryOp("=", col(0), col(1)), False),
        (BinaryOp("=", BinaryOp("+", col(0), Literal(1)), Literal(2)), False),
        (BinaryOp("OR", BinaryOp("=", col(0), Literal(1)), BinaryOp("=", col(0), Literal(2))), False),
        (InList(col(0), (Literal(1),), True), False),
        (InList(col(0), (Literal(1), col(1))), False),
        (InList(col(0), (Literal(NAN),)), False),
        (InList(BinaryOp("+", col(0), Literal(1)), (Literal(1),)), False),
        (Like(col(1), Literal("a%")), False),
        (Between(col(0), Literal(1), Literal(2)), False),
        (IsNull(col(0)), False),
    ],
)
def test_which_predicates_get_passes(conjunct, has_passes):
    """One conjunct outside the two shapes keeps the whole filter a closure."""
    leaf = Rows("t", [], 3)
    alone = ENGINE.lower(LogicalFilter(leaf, conjunct))
    assert (alone.passes is not None) == has_passes
    beside = ENGINE.lower(LogicalFilter(leaf, and_all([BinaryOp("<", col(2), Literal(9)), conjunct])))
    assert (beside.passes is not None) == has_passes
    if has_passes:
        assert len(beside.passes) == 2


def test_a_failed_guard_hands_every_row_to_the_closure():
    """The guard is over all input rows, and failing it costs nothing but the
    sweep: the closure answers - or raises - for the whole input."""
    rows = [(None, "x", 0), (5, 1, 0)]
    conjuncts = [BinaryOp(">", col(0), Literal(1)), BinaryOp("<", col(1), Literal(2))]
    op, kernel, reference = run_both_filters(rows, conjuncts)
    assert run_filter_passes(op.passes, rows) is None
    assert kernel == reference == ("raise", TypeMismatchError, "cannot compare 'x' with 2")
    # the same rows without the offender: the passes answer
    assert run_filter_passes(op.passes, rows[1:]) == [(5, 1, 0)]


# --- relations ----------------------------------------------------------------

#: values `value_size` prices through its slow path, or refuses
odd_values = st.sampled_from(
    [datetime.datetime(2005, 6, 14, 12), Tagged(7), 10**400, b"bytes", (1, 2), "\ud800", "a\ud800"]
)


@st.composite
def equal_width_rows(draw):
    width = draw(st.integers(0, 5))
    values = st.one_of(scalars, scalars, scalars, st.text(max_size=5), odd_values)
    return width, draw(st.lists(st.tuples(*[values] * width), max_size=12))


@given(case=equal_width_rows())
@example(case=(0, []))
@example(case=(0, [(), (), ()]))
@example(case=(3, []))
@example(case=(2, [("é", None), (None, "日本"), ("", "a")]))
@example(case=(1, [(datetime.datetime(2005, 6, 14),), (datetime.date(2005, 6, 14),)]))
@example(case=(2, [(1, "a"), (b"x", "\ud800")]))  # which error: the first in row order
@example(case=(2, [(1, "\ud800"), (b"x", "a")]))
@settings(max_examples=400, deadline=None)
def test_size_bytes_is_the_sum_of_row_sizes(case):
    width, rows = case
    relation = Relation(Rows("t", [], width).schema, rows)

    def size(thunk):
        try:
            return ("ok", thunk())
        except Exception as exc:
            return ("raise", type(exc), str(exc))

    assert size(relation.size_bytes) == size(lambda: ref_size_bytes(rows))


ragged = st.lists(
    st.one_of(st.lists(scalars, max_size=4), st.lists(scalars, max_size=4).map(tuple)),
    max_size=8,
)


@given(rows=ragged, width=st.integers(0, 4), lazily=st.booleans())
@example(rows=[(1, 2), (1,), (1, 2, 3)], width=2, lazily=False)  # names the first ragged row
@example(rows=[], width=2, lazily=True)
@example(rows=[(), ()], width=0, lazily=False)
@settings(max_examples=300, deadline=None)
def test_relation_construction_matches_the_row_loop(rows, width, lazily):
    schema = Rows("t", [], width).schema
    expected = outcome(lambda: ref_relation_rows(schema, rows))
    built = outcome(lambda: Relation(schema, iter(rows) if lazily else rows).rows)
    assert built == expected
    if expected[0] == "ok":
        assert all(type(row) is tuple for row in Relation(schema, rows).rows)
        assert Relation(schema, rows).rows is not rows


# --- index access paths -------------------------------------------------------

#: declared type -> what `Table` stores in such a column. No NaN: a sorted
#: index cannot order it, whatever the statement.
stored_values = {
    T.INT: st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1])),
    T.FLOAT: st.one_of(st.none(), st.integers(-3, 3).map(float), st.sampled_from([0.5, -0.0, 2.0**53, float("inf")])),
    T.STRING: strings,
    T.DATE: dates,
    T.BOOL: st.one_of(st.none(), st.booleans()),
}


@st.composite
def index_cases(draw):
    dtype = draw(st.sampled_from(sorted(stored_values, key=lambda t: t.name)))
    values = draw(st.lists(stored_values[dtype], max_size=8))
    op, literal = draw(comparators), Literal(draw(literal_values))
    k = ColumnRef("k", draw(st.sampled_from([None, "t"])))
    conjuncts = [BinaryOp(op, k, literal) if draw(st.booleans()) else BinaryOp(op, literal, k)]
    if draw(st.booleans()):  # beside a conjunct that cannot raise
        conjuncts.insert(draw(st.integers(0, 1)), BinaryOp(">=", ColumnRef("id"), Literal(2)))
    return dtype, values, and_all(conjuncts)


def scan_and_index_outcomes(dtype, values, predicate):
    """The statement's outcome with no index, a hash index and a sorted index
    on `k`: rows as a bag (an index scan returns them in its own order)."""
    outcomes = []
    for index in (None, "hash", "sorted"):
        db = Database("indexed")
        table = Table.build("t", [("id", T.INT), ("k", dtype)], list(enumerate(values)))
        db.add_table(table)
        if index is not None:
            table.create_index("k", sorted=index == "sorted")
        op = LocalEngine(db).lower(LogicalFilter(LogicalScan("t", "t", table.schema), predicate))
        result = outcome(op.run)
        outcomes.append(result[:1] + (sorted(result[1]),) if result[0] == "ok" else result)
    return outcomes


@given(case=index_cases())
@example(case=(T.INT, [1, None, 3], BinaryOp("=", ColumnRef("k"), Literal(None))))
@example(case=(T.INT, [1, None, 3], BinaryOp(">", ColumnRef("k"), Literal(None))))
@example(case=(T.INT, [1, None, 3], BinaryOp("=", ColumnRef("k"), Literal("x"))))
@example(case=(T.INT, [1, None, 3], BinaryOp("<", ColumnRef("k"), Literal("x"))))
@example(case=(T.INT, [2**53 + 1, 2**53], BinaryOp("=", ColumnRef("k"), Literal(2.0**53))))
@example(case=(T.FLOAT, [1.0, None, 3.0], BinaryOp("<", Literal(NAN), ColumnRef("k"))))
@example(case=(T.INT, [1, 0, None], BinaryOp("=", ColumnRef("k"), Literal(True))))
@settings(max_examples=400, deadline=None)
def test_an_index_access_path_answers_what_the_filter_answers(case):
    plain, hashed, ordered = scan_and_index_outcomes(*case)
    assert hashed == plain
    assert ordered == plain


def test_an_index_is_still_taken_for_a_literal_of_the_columns_family():
    db = Database("indexed")
    table = Table.build("t", [("id", T.INT), ("k", T.INT), ("f", T.FLOAT)], [(0, 1, 1.5), (1, None, 2.5)])
    db.add_table(table)
    table.create_index("k", sorted=True)
    table.create_index("f", sorted=True)
    scan = LogicalScan("t", "t", table.schema)

    def label(predicate):
        return LocalEngine(db).lower(LogicalFilter(scan, predicate)).explain()

    k, f = ColumnRef("k"), ColumnRef("f")
    assert label(BinaryOp("=", k, Literal(1))).startswith("IndexEqScan(t.k = 1)")
    assert label(BinaryOp("<", Literal(0), k)).startswith("IndexRangeScan(t.k: 0 < x)")
    assert label(BinaryOp(">=", f, Literal(2))).startswith("IndexRangeScan(t.f: 2 <= x)")
    # outside the family the conjunct stays in the filter, over a full scan
    for predicate in (
        BinaryOp("=", k, Literal(None)), BinaryOp(">", k, Literal(None)),
        BinaryOp("=", k, Literal("x")), BinaryOp("=", k, Literal(2.0**53)),
        BinaryOp("=", k, Literal(2**53 + 1)), BinaryOp("<", f, Literal(NAN)),
    ):
        assert label(predicate) == f"Filter({predicate})\n  SeqScan(t AS t)"


# --- cost shape and ownership -------------------------------------------------


def python_calls(thunk):
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    was_collecting = gc.isenabled()
    gc.disable()  # a collection would run Hypothesis' Python-level gc callback
    sys.setprofile(count_calls)
    try:
        thunk()
    finally:
        sys.setprofile(None)
        if was_collecting:
            gc.enable()
    return calls


def test_an_all_column_projection_makes_no_python_call_per_row():
    """Counted, never timed: 2 000 rows x 5 picked columns used to be 2 000
    generator frames and 10 000 lambda calls."""
    rows = [(i, f"name{i}", i / 7, None, i % 2 == 0) for i in range(2000)]
    leaf = Rows("t", rows, 5)
    for picks in ([4, 3, 2, 1, 0], [1]):
        items = [SelectItem(col(i), f"o{n}") for n, i in enumerate(picks)]
        op = ENGINE.lower(LogicalProject(leaf, items))
        assert python_calls(op.run) <= 10
        assert op.run() == [tuple(row[i] for i in picks) for row in rows]


def test_a_kernel_filter_makes_no_python_call_per_row():
    """Two conjuncts over 2 000 rows were four closure frames per row and
    conjunct (~20 000 calls); a pass is a C-level sweep, or one comprehension
    when its column holds a NULL."""
    conjuncts = [BinaryOp("=", col(4), FALSE), BinaryOp(">", col(2), Literal(100))]
    clean = [(i, f"name{i}", i / 7, None, i % 2 == 0) for i in range(2000)]
    holed = [row if i % 50 else (i, None, None, None, None) for i, row in enumerate(clean)]
    for rows in (clean, holed):
        leaf = Rows("t", rows, 5)
        op = ENGINE.lower(LogicalFilter(leaf, and_all(conjuncts)))
        assert python_calls(op.run) <= 15
        reference = compile_predicate(and_all(conjuncts), leaf.schema)
        assert op.run() == ref_filter(reference, rows) and len(op.run()) > 600


def test_sizing_and_building_a_relation_make_no_python_call_per_value():
    """`size_bytes()` was a `row_size` + genexpr step per row and a
    `value_size` per value (~14 000 calls for 2 000 x 5), `Relation(...)` a
    `len(schema)` per row."""
    rows = [
        (i, f"naïve{i}" if i % 3 else None, i / 7, None, datetime.date(2005, 6, 14))
        for i in range(2000)
    ]
    schema = Rows("t", [], 5).schema
    relation = Relation(schema, rows)
    assert python_calls(relation.size_bytes) <= 25
    assert relation.size_bytes() == ref_size_bytes(rows)
    assert python_calls(lambda: Relation(schema, rows)) <= 5
    assert python_calls(lambda: Relation(schema, map(list, rows))) <= 5


def test_a_fold_makes_no_python_call_per_value():
    """Counted, never timed: over a scan's vouched rows - one column NULL-free,
    one holding NULLs - six aggregates of eight groups cost the same Python
    calls at 1 000 rows as at 4 000. Fed value by value, each row was five
    `add` frames, and one more per distinct value."""
    calls = [
        count(Star()), FuncCall("SUM", (col(1),)), FuncCall("AVG", (col(2),)),
        FuncCall("MIN", (col(1),)), FuncCall("MAX", (col(2),)), count(col(1), distinct=True),
    ]
    counted = []
    for size in (1000, 4000):
        rows = [(i % 8, i % 13 / 4, None if i % 10 == 0 else i % 7) for i in range(size)]
        db = Database("folded")
        db.add_table(Table.build("t", [("c0", T.INT), ("c1", T.FLOAT), ("c2", T.INT)], rows))
        plan = LogicalAggregate(
            LogicalScan("t", "t", db.table("t").schema), [col(0)], ["g"],
            calls, [f"a{i}" for i in range(len(calls))],
        )
        op = LocalEngine(db, optimize=False).lower(plan)
        first = op.run()  # sweeps each column's kinds once, for every later run
        assert [resolved(vouch) for vouch in op.child.run().kinds] == [
            frozenset({int}), frozenset({float}), frozenset({int, NULL}),
        ]
        counted.append(python_calls(op.run))
        specs = [
            (call.name, call.distinct, None if isinstance(call.args[0], Star) else compile_expr(call.args[0], plan.child.schema))
            for call in calls
        ]
        reference = ref_aggregate([compile_expr(col(0), plan.child.schema)], specs, rows)
        assert repr(first) == repr(op.run()) == repr(reference) and len(first) == 8
    assert counted[0] == counted[1], counted


def test_a_sequential_scan_copies_the_heap():
    table = Table.build("t", [("id", T.INT), ("name", T.STRING)], [(i, f"n{i}") for i in range(2000)])
    scan = SeqScan(table, "t")
    assert python_calls(scan.run) <= 3
    assert scan.run() == list(table.rows()) and scan.run() is not scan.run()
    scan.run().clear()  # the caller's copy, not the heap
    assert len(scan.run()) == 2000
    table.delete_where(lambda row: row[0] % 2 == 1)  # tombstones
    assert python_calls(scan.run) <= 3
    assert scan.run() == list(table.rows()) == [(i, f"n{i}") for i in range(0, 2000, 2)]
    assert table.scan().rows == scan.run()


class SameList(PhysicalOp):
    """Hands out one list object run after run, as a `FetchOp` hands out the
    rows of its execution's memoised relation."""

    def __init__(self, schema, rows):
        self.schema = schema
        self.rows = rows

    def run(self, values=()):
        return self.rows


class SharedRows(Rows):
    def lower_physical(self, engine, context=None):
        return SameList(self.schema, self.rows)


def test_no_operator_mutates_or_returns_its_childs_list():
    rows = [(2, "b", 1.5), (1, "a", None), (2, "a", 0.5), (None, "c", 2.5)]
    pristine = list(rows)
    child, other = SharedRows("l", rows, 3), SharedRows("r", list(rows), 3)
    plans = [
        LogicalProject(child, [SelectItem(left_col(1)), SelectItem(left_col(0))]),
        LogicalProject(child, [SelectItem(BinaryOp("+", left_col(0), Literal(1)), "n")]),
        LogicalAggregate(child, [left_col(0)], ["g"], [count(Star())], ["n"]),
        LogicalAggregate(child, [], [], [FuncCall("MAX", (left_col(2),))], ["m"]),
        LogicalSort(child, [OrderItem(left_col(0)), OrderItem(left_col(1), ascending=False)]),
        LogicalJoin(child, other, "LEFT", BinaryOp("=", left_col(0), right_col(0))),
        LogicalJoin(other, child, "INNER", BinaryOp("=", right_col(0), left_col(0))),
        # filter passes: every row survives / a NULL in the column / the
        # guard fails and the closure answers / there never were passes
        LogicalFilter(child, BinaryOp("<>", left_col(1), Literal("z"))),
        LogicalFilter(child, and_all([BinaryOp("<>", left_col(1), Literal("z")), BinaryOp(">", left_col(0), Literal(0))])),
        LogicalFilter(child, BinaryOp("<>", left_col(2), Literal("z"))),
        LogicalFilter(child, IsNull(left_col(1), negated=True)),
    ]
    for plan in plans:
        op = ENGINE.lower(plan)
        first = op.run()
        assert first is not rows and rows == pristine, op.explain_label()
        first.clear()  # the caller owns what run() returned
        assert op.run() and rows == pristine, op.explain_label()
    # pass-through operators may share structure with the child, never edit it
    shared = SameList(child.schema, rows)
    for op in (
        FilterOp(shared, lambda row: row[0] == 2), LimitOp(shared, 2),
        DistinctOp(shared), RelabelOp(shared, shared.schema),
    ):
        op.run()
        assert rows == pristine, op.explain_label()


def test_an_answer_from_the_fetch_cache_survives_edits_to_an_earlier_result():
    from repro.cache import CacheConfig, CacheHierarchy
    from tests.federation_fixtures import build_engine

    sql = (
        "SELECT c.city, COUNT(*) AS n, SUM(o.total) AS revenue FROM customers c "
        "JOIN orders o ON c.id = o.cust_id GROUP BY c.city ORDER BY c.city"
    )
    projection = "SELECT name, id FROM customers"
    engine = build_engine(cache=CacheHierarchy(CacheConfig(result_enabled=False)))
    for text in (sql, projection):
        expected = list(engine.query(text).relation.rows)
        again = engine.query(text)
        assert again.metrics.fetch_cache_hits and again.relation.rows == expected
        again.relation.rows.reverse()
        again.relation.rows.append(("edited",))
        assert engine.query(text).relation.rows == expected


def test_project_op_takes_the_kernel_the_executor_picked():
    """`ProjectOp` is one operator with one `run()`: what differs per plan is
    the `rows -> tuples` kernel chosen at lower time."""
    leaf = Rows("t", [(1, 2, 3, 4)], 4)
    picked = ENGINE.lower(LogicalProject(leaf, [SelectItem(col(1)), SelectItem(col(0))]))
    mixed = ENGINE.lower(LogicalProject(leaf, [SelectItem(col(1)), SelectItem(Literal(0), "z")]))
    assert type(picked) is type(mixed) is ProjectOp
    assert picked.run() == [(2, 1)] and mixed.run() == [(2, 0)]


# --- what a batch vouches -----------------------------------------------------
#
# A `Batch` carries, per column, a frozenset its producer vouches to hold at
# least every exact type of the column (or None, or a callable yielding
# either). Consumers may skip work on its word, never answer differently: the
# references stay the sweeping bodies above.

EVERY_KIND = [NULL, bool, int, float, str, datetime.date, datetime.datetime, Tagged, bytes]


def column_types(rows, position):
    return {type(row[position]) for row in rows}


def resolved(vouch):
    return vouch() if callable(vouch) else vouch


@st.composite
def sound_vouches(draw, rows, width):
    """Per column: the exact kinds, a strict superset, nothing - bare or
    behind a call, as a scan hands them out."""
    kinds = []
    for position in range(width):
        exact = frozenset(column_types(rows, position))
        extra = frozenset(draw(st.lists(st.sampled_from(EVERY_KIND), max_size=2)))
        vouch = draw(st.sampled_from([exact, exact, exact | extra, None]))
        kinds.append((lambda v=vouch: v) if draw(st.booleans()) else vouch)
    return tuple(kinds)


@st.composite
def vouched_rows(draw):
    width, rows = draw(equal_width_rows())
    return width, rows, draw(sound_vouches(rows, width))


def size_outcome(thunk):
    try:
        return ("ok", thunk())
    except Exception as exc:
        return ("raise", type(exc), str(exc))


D14_NOON = datetime.datetime(2005, 6, 14, 12)


@given(case=vouched_rows())
@example(case=(2, [(1, None), (2, "é")], (frozenset({int}), frozenset({str, NULL}))))
# a `datetime` in a DATE column is its own kind: nothing fixed-width prices it
@example(case=(1, [(D14,), (D14_NOON,)], (frozenset({datetime.date, datetime.datetime}),)))
@example(case=(1, [(D14_NOON,)], (frozenset({datetime.datetime}),)))
@example(case=(2, [(Tagged(1), 1)], (frozenset({Tagged}), frozenset({int}))))  # an int subclass
@example(case=(2, [(1, "\ud800"), (2, "a")], (frozenset({int}), frozenset({str}))))  # a lone surrogate
@example(case=(2, [(b"x", "\ud800")], (frozenset({bytes}), frozenset({str}))))  # which error: row order
@example(case=(3, [], (frozenset({int}), frozenset({datetime.datetime}), None)))  # zero rows
@example(case=(2, [], (frozenset(), frozenset())))
@example(case=(1, [(1,), (2,)], (frozenset({int, str}),)))  # two kinds vouched: swept
@example(case=(1, [(1,), (2.5,)], (frozenset({int, float}),)))
@settings(max_examples=400, deadline=None)
def test_size_bytes_under_any_sound_vouch_is_the_sum_of_row_sizes(case):
    width, rows, kinds = case
    relation = Relation.adopt(Rows("t", [], width).schema, vouched(list(rows), kinds))
    assert getattr(relation.rows, "kinds", None) is kinds
    assert size_outcome(relation.size_bytes) == size_outcome(lambda: ref_size_bytes(rows))


class VouchedRows(LogicalPlan):
    """A leaf whose operator hands out a `Batch` vouching `kinds`."""

    def __init__(self, qualifier, rows, width, kinds):
        self.schema = RelSchema(Column(f"c{i}", T.ANY, qualifier) for i in range(width))
        self.rows, self.kinds = rows, kinds

    def lower_physical(self, engine, context=None):
        leaf = ValuesOp(self.schema, self.rows)
        leaf.run = lambda values=(): vouched(list(self.rows), self.kinds)
        return leaf


@st.composite
def vouched_filter_cases(draw):
    rows, conjuncts = draw(filter_cases())
    return rows, conjuncts, draw(sound_vouches(rows, 3))


@given(case=vouched_filter_cases())
# a vouch wider than the guard admits, over rows the guard would pass
@example(case=([(1, "a", 0), (5, "b", 0)], [BinaryOp(">", col(0), Literal(1))], (frozenset({int, str}), None, None)))
@example(case=([(None, "x", 0), (5, 1, 0)], [BinaryOp(">", col(0), Literal(1)), BinaryOp("<", col(1), Literal(2))], (frozenset({int, NULL}), frozenset({str, int}), None)))
@example(case=([], [BinaryOp(">", col(0), Literal(1))], (frozenset(), frozenset(), frozenset())))
@settings(max_examples=500, deadline=None)
def test_a_filter_answers_the_same_with_the_guard_from_the_vouch(case):
    rows, conjuncts, kinds = case
    predicate = and_all(conjuncts)
    op = ENGINE.lower(LogicalFilter(VouchedRows("t", rows, 3, kinds), predicate))
    reference = compile_predicate(predicate, op.schema)
    assert outcome(op.run) == outcome(lambda: ref_filter(reference, rows))
    if op.passes is not None:  # the passes answer exactly when they would over a sweep
        swept, told = run_filter_passes(op.passes, list(rows)), run_filter_passes(op.passes, op.child.run())
        assert (swept is None) == (told is None) and (swept is None or [repr(r) for r in swept] == [repr(r) for r in told])


def test_a_vouch_the_guard_does_not_admit_is_no_evidence_against_the_rows():
    rows = [(1, 0, 0), (5, 0, 0)]
    op = ENGINE.lower(LogicalFilter(
        VouchedRows("t", rows, 3, (frozenset({int, str, Tagged}), None, None)),
        BinaryOp(">", col(0), Literal(1)),
    ))
    assert run_filter_passes(op.passes, op.child.run()) == [(5, 0, 0)]  # swept, not the closure
    assert op.run() == [(5, 0, 0)] and op.run().kinds[0] == {int, str, Tagged}  # and passed on


# every operator over stored tables: what comes out is vouched soundly

stored_columns = [("id", T.INT), ("n", T.INT), ("f", T.FLOAT), ("s", T.STRING), ("d", T.DATE), ("v", T.ANY)]
stored_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 4)),
        st.one_of(st.none(), st.integers(-2, 2)),
        st.one_of(st.none(), st.sampled_from([0.5, -1.0])),
        strings,
        st.one_of(st.none(), st.sampled_from([D14, D15, D14_NOON])),
        st.sampled_from([None, 1, 2.5, "x", True, D14]),
    ),
    max_size=6,
)


def stored(name, index):
    return ColumnRef(stored_columns[index][0], name)


@st.composite
def plans_over_tables(draw, depth=3):
    """`(plan, computes, full)`: whether the root computes new values (and so
    vouches nothing) and whether every column below it came off a table."""
    name = draw(st.sampled_from(["a", "b"]))
    schema = RelSchema(Column(column, dtype) for column, dtype in stored_columns)
    plan, computes, full = LogicalScan(name, name, schema), False, True
    steps = ["filter", "index", "pick", "eval", "sort", "limit", "distinct", "alias", "join", "left", "aggregate", "union"]
    for _ in range(draw(st.integers(0, depth))):
        width = len(plan.schema)
        first = ColumnRef(plan.schema[0].name, plan.schema[0].qualifier)
        step = draw(st.sampled_from(steps))
        full = full and not computes
        computes = step in ("eval", "aggregate", "union")
        if step == "filter":
            plan = LogicalFilter(plan, BinaryOp(draw(comparators), first, Literal(draw(st.integers(0, 3)))))
        elif step == "index":
            if isinstance(plan, LogicalScan):  # lowered to an index scan, maybe under a filter
                plan = LogicalFilter(plan, BinaryOp(draw(st.sampled_from(["=", "<", ">="])), stored(name, 1), Literal(0)))
        elif step == "pick":
            picks = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=4))
            refs = [ColumnRef(plan.schema[i].name, plan.schema[i].qualifier) for i in picks]
            plan = LogicalProject(plan, [SelectItem(ref, f"p{n}") for n, ref in enumerate(refs)])
        elif step == "eval":
            plan = LogicalProject(plan, [SelectItem(first, "p0"), SelectItem(IsNull(first), "p1")])
        elif step == "sort":
            plan = LogicalSort(plan, [OrderItem(IsNull(first), draw(st.booleans()))])
        elif step == "limit":
            plan = LogicalLimit(plan, draw(st.integers(0, 4)))
        elif step == "distinct":
            plan = LogicalDistinct(plan)
        elif step == "alias":
            plan = LogicalAlias(plan, "z")
        elif step in ("join", "left"):
            other = draw(st.sampled_from(["a", "b", "c"]))  # c: a side nothing vouches for
            full = full and other != "c"
            right = LogicalScan(other, "r", schema) if other != "c" else Rows("r", draw(stored_rows), len(schema))
            key = ColumnRef("id" if other != "c" else "c0", "r")
            plan = LogicalJoin(plan, right, "LEFT" if step == "left" else "INNER", BinaryOp("=", first, key))
        elif step == "aggregate":
            plan = LogicalAggregate(plan, [first], ["g"], [FuncCall("COUNT", (Star(),))], ["n"])
        elif step == "union":
            plan = LogicalUnion([plan, plan])
    return plan, computes, full


@given(a=stored_rows, b=stored_rows, case=plans_over_tables())
@settings(max_examples=400, deadline=None)
def test_every_operator_vouches_a_superset_of_what_it_outputs(a, b, case):
    plan, computes, full = case
    db = Database("vouched")
    for name, rows in (("a", a), ("b", b)):
        table = db.add_table(Table.build(name, stored_columns, rows))
        table.create_index("n", sorted=True)
    try:
        rows = LocalEngine(db, optimize=False).lower(plan).run()
    except Exception:
        return  # a comparison the drawn values do not support: nothing came out
    kinds = getattr(rows, "kinds", None)
    if computes:
        assert kinds is None
    if kinds is None:
        assert computes or not full or not rows  # a join of no rows has no width to vouch
        return
    assert len(kinds) == len(plan.schema)
    for position, vouch in enumerate(kinds):
        vouch = resolved(vouch)
        assert vouch is None or column_types(rows, position) <= vouch, (position, vouch)
        assert vouch is not None or not full, position


def test_a_left_join_vouches_the_null_it_pads_with():
    db = Database("padded")
    db.add_table(Table.build("a", [("id", T.INT)], [(1,), (2,)]))
    db.add_table(Table.build("b", [("id", T.INT), ("s", T.STRING)], [(1, "x")]))
    a, b = (LogicalScan(n, n, db.table(n).schema) for n in "ab")
    condition = BinaryOp("=", ColumnRef("id", "a"), ColumnRef("id", "b"))
    for kind, expected in (("INNER", [{int}, {int}, {str}]), ("LEFT", [{int}, {int, NULL}, {str, NULL}])):
        rows = LocalEngine(db).lower(LogicalJoin(a, b, kind, condition)).run()
        assert [resolved(vouch) for vouch in rows.kinds] == expected, kind


def test_a_scan_vouches_nothing_for_a_version_it_did_not_read():
    table = Table.build("t", [("v", T.ANY)], [(1,), (2,)])
    for scan in (SeqScan(table, "t"), physical.IndexEqScan(table, "t", "v", 1)):
        before = scan.run()
        assert resolved(before.kinds[0]) == {int}
        table.insert(("x",))
        assert resolved(before.kinds[0]) is None  # even though it was resolved: the memo is the new version's
        assert resolved(scan.run().kinds[0]) == ({int, str} if isinstance(scan, SeqScan) else {int, str})
        table.delete_where(lambda row: row[0] == "x")
    unread = SeqScan(table, "t").run()
    table.insert((2.5,))
    assert resolved(unread.kinds[0]) is None and column_types(unread, 0) == {int}
    # a write landing between the version and the rows: nothing is vouched
    racing = SeqScan(table, "t")
    live_rows = table.live_rows
    table.live_rows = lambda: (table.insert(("late",)), live_rows())[1]
    try:
        assert getattr(racing.run(), "kinds", None) is None
    finally:
        del table.live_rows
    assert resolved(racing.run().kinds[0]) == {int, float, str}


class Watched(Batch):
    """Counts the rows anything reads off it by iterating."""

    reads = 0

    def __iter__(self):
        for row in list.__iter__(self):
            self.reads += 1
            yield row


def test_a_vouched_batch_is_sized_adopted_and_filtered_without_a_sweep(monkeypatch):
    """Counted, never timed, over 2 000 rows."""
    day = datetime.date(2005, 6, 14)
    rows = Watched((i, i / 7, i % 2 == 0, day) for i in range(2000))
    rows.kinds = (frozenset({int}), frozenset({float}), frozenset({bool}), frozenset({datetime.date}))
    schema = Rows("t", [], 4).schema
    relation = Relation.adopt(schema, rows)
    assert relation.rows is rows and python_calls(lambda: Relation.adopt(schema, rows)) <= 2
    rows.reads = 0
    assert relation.size_bytes() == ref_size_bytes(list.__iter__(rows))
    assert rows.reads == 0  # fixed widths: no value is looked at
    plain = Relation.adopt(schema, vouched(list(rows), rows.kinds))
    assert python_calls(plain.size_bytes) <= 6
    # strings are read once, for their bytes, not for their types
    named = vouched([(i, f"naïve{i}") for i in range(2000)], (frozenset({int}), frozenset({str})))
    assert python_calls(Relation.adopt(schema, named).size_bytes) <= 6
    assert Relation.adopt(schema, named).size_bytes() == ref_size_bytes(named)
    # an operator's relation() is its rows, adopted
    leaf = SameList(schema, rows)
    assert leaf.relation().rows is rows and python_calls(leaf.relation) <= 4
    # a vouched filter asks no value for its type
    typed = []
    monkeypatch.setattr(physical, "type", lambda value: typed.append(1) or type(value), raising=False)
    conjuncts = [BinaryOp("=", col(2), FALSE), BinaryOp(">", col(0), Literal(100))]
    op = ENGINE.lower(LogicalFilter(VouchedRows("t", list(rows), 4, rows.kinds), and_all(conjuncts)))
    assert len(op.run()) == 950 and len(typed) <= 4
    assert python_calls(op.run) <= 15
    op = ENGINE.lower(LogicalFilter(VouchedRows("t", list(rows), 4, None), and_all(conjuncts)))
    assert len(op.run()) == 950 and len(typed) >= 4000  # unvouched: both guards sweep


def test_an_answer_is_the_callers_list_and_no_one_elses(monkeypatch):
    """Mutating `result.relation.rows` changes no heap, index bucket, cache
    entry, memo or later answer - with and without the fetch cache, whether
    the root builds its rows (join, aggregate) or passes a fetch's through."""
    from repro.cache import CacheConfig, CacheHierarchy
    from repro.federation.execution import Execution
    from tests.federation_fixtures import build_engine

    texts = [
        "SELECT name, id FROM customers",  # a bare fetch of a scan
        "SELECT name FROM customers WHERE id = 3",  # ... of an index bucket
        "SELECT c.city, COUNT(*) AS n FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.city ORDER BY c.city",
        "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id WHERE o.total > 100",
    ]
    fetched = []
    fetch = Execution.fetch
    monkeypatch.setattr(Execution, "fetch", lambda run, node, record=None: fetched.append(fetch(run, node, record)) or fetched[-1])
    for cache in (None, CacheHierarchy(CacheConfig(result_enabled=False))):
        engine = build_engine(cache=cache)
        heaps = {
            (source.name, name): list(source.db.table(name)._heap)
            for source in engine.catalog.sources.values() if hasattr(source, "db")
            for name in source.db.table_names()
        }
        for text in texts:
            expected = list(engine.query(text).relation.rows)
            del fetched[:]
            again = engine.query(text)
            assert again.relation.rows == expected
            memo = [(relation, list(relation.rows)) for relation in fetched]
            assert memo and all(again.relation.rows is not relation.rows for relation, _ in memo)
            again.relation.rows.reverse()
            again.relation.rows.append(("edited",))
            del again.relation.rows[0]
            assert all(relation.rows == rows for relation, rows in memo)
            assert engine.query(text).relation.rows == expected
        for (source, name), heap in heaps.items():
            assert engine.catalog.sources[source].db.table(name)._heap == heap


# --- the real traffic ---------------------------------------------------------


def wall_workloads():
    """`benchmarks/wallclock/workloads.py`, the wall-clock harness's own module."""
    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "wallclock" / "workloads.py"
    spec = importlib.util.spec_from_file_location("eiibench_wall_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def benchmark_statements():
    """Q1-Q12, the six `adhoc_lookup_s1` templates (for one customer) and the
    five dashboard aggregates, read from the wall-clock harness itself."""
    workloads = wall_workloads()
    lookups = [template.format(id=3) for template in workloads.LOOKUP_TEMPLATES.values()]
    return list(QUERIES.values()) + lookups + list(workloads.DASHBOARD.values())


def test_every_filter_of_the_benchmark_traffic_runs_its_passes(monkeypatch):
    """Asserted, not assumed: each `FilterOp` the four workloads lower - at a
    source or at the hub - carries passes, and every guard holds on the
    scale-1 enterprise, so no benchmark row meets a predicate closure."""
    ran = {}
    run = FilterOp.run

    def watched(op, values=()):
        rows = op.child.run(values)
        predicate = op.predicate.text(values)  # as the run's constants print it
        assert op.passes is not None, predicate
        assert run_filter_passes(op.passes, rows, values) is not None, predicate
        ran[predicate] = len(op.passes)
        return run(op, values)

    monkeypatch.setattr(FilterOp, "run", watched)
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    engine = repro.connect(fixture.catalog(), EngineConfig(clock=SimClock()))
    for sql in benchmark_statements():
        engine.query(sql)
    assert len(ran) >= 13, sorted(ran)  # distinct predicates, source side and hub
    assert ran["((i.paid = FALSE) AND (i.amount > 2000))"] == 2  # q8: the bool-literal row


def derivations(monkeypatch):
    """Every `(table, key)` a `Table.derived` memo had to derive, in order."""
    derived, memo = [], Table.derived

    def watched(table, key, derive):
        return memo(table, key, lambda: derived.append((table.name, key)) or derive())

    monkeypatch.setattr(Table, "derived", watched)
    return derived


def test_the_benchmark_traffic_is_vouched_at_the_wire_and_guarded_from_the_memo(monkeypatch):
    """Asserted, not assumed, on the scale-1 enterprise: what a relational
    source ships is fully and soundly vouched unless an aggregate computed it
    (a handful of rows, or a pushed partial), and on a second execution every
    filter guard at a source is answered by the table's memo - nothing is
    derived again."""
    from repro.sources import RelationalSource

    shipped, guards = [], []
    execute, run = RelationalSource.execute_select, FilterOp.run

    def shipping(source, stmt, metrics=None):
        relation = execute(source, stmt, metrics)
        kinds = getattr(relation.rows, "kinds", None)
        if kinds is not None:
            kinds = [resolved(vouch) for vouch in kinds]
            for position, vouch in enumerate(kinds):
                assert vouch is not None and column_types(relation.rows, position) <= vouch, stmt
        partial = any((item.alias or "").startswith("_p") for item in stmt.items)
        shipped.append((len(relation), kinds, partial))
        return relation

    def guarded(op, values=()):
        rows = op.child.run(values)
        if isinstance(op.child, (SeqScan, physical.IndexEqScan, physical.IndexRangeScan)):
            for position, admits, _, _ in op.passes:
                guards.append(resolved(rows.kinds[position]) <= admits)
        return run(op, values)

    monkeypatch.setattr(RelationalSource, "execute_select", shipping)
    monkeypatch.setattr(FilterOp, "run", guarded)
    derived = derivations(monkeypatch)
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    engine = repro.connect(fixture.catalog(), EngineConfig(clock=SimClock()))
    statements = benchmark_statements()
    for sql in statements:
        engine.query(sql)
    first, first_guards = len(derived), len(guards)
    for sql in statements:
        engine.query(sql)
    assert len(derived) == first and len(set(derived)) == first  # each once, none again
    assert len(guards) == 2 * first_guards >= 24 and all(guards)
    others = [(rows, kinds) for rows, kinds, partial in shipped if not partial]
    unvouched = [rows for rows, kinds in others if kinds is None]
    assert len(unvouched) == 14 and max(unvouched) <= 5  # q3, q10, d1-d5, twice
    assert sum(unvouched) < 0.01 * sum(rows for rows, _ in others)
    # 52 vouched shipments before eager aggregation, less the 8 plain orders
    # fetches of q5, q6, q9 and q12 that the per-customer partials replace:
    # aggregate answers too, each of sales' 37 customers with orders
    assert len(others) - len(unvouched) >= 44
    assert [(rows, kinds) for rows, kinds, partial in shipped if partial] == [(37, None)] * 8


def test_an_announced_write_re_derives_each_touched_column_once(monkeypatch):
    """`dashboard_rw`'s write path: an insert and its broker announcement. The
    reads that follow sweep the written table's columns again - each one a
    guard or the wire asks about, once - and no other table's."""
    workloads = wall_workloads()
    workload = workloads.DashboardRW(1)
    stack = workload.build()
    texts = sorted({step.sql for step in workload.steps(0) if step.sql is not None})
    for sql in texts:
        stack.engine.query(sql)
    derived = derivations(monkeypatch)
    for sql in texts:
        stack.engine.query(sql)
    assert derived == []  # warm: result cache or memo, nothing swept
    stack.write("orders")
    for _ in range(2):
        for sql in texts:
            stack.engine.query(sql)
    assert {table for table, _ in derived} == {"orders"}
    assert len(derived) == len(set(derived))  # exactly once each
    columns = {key for _, key in derived if key != "stats"}
    width = len(stack.fixture.sales.table("orders").schema)
    assert 2 <= len(columns) < width and columns <= set(range(width))  # the touched ones only
