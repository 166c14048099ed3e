"""Differential oracle: the operator kernels vs the row-at-a-time operators.

The `ref_*` functions below are the `run()` bodies of `ProjectOp`,
`HashAggregateOp`, `HashJoinOp` and `BindJoinOp` as they stood before the
kernels (one key tuple, one closure call and one `zip` per row). Hypothesis
drives both with rows over every scalar the wire model knows - mixed types
in one column included - through `LocalEngine.lower()`, so which kernel is
picked from which logical node is part of what is checked. Answers are
compared **in order** by `repr` (float bits, -0.0, which of `1` / `1.0` /
`True` represents a group, and group order all count), failures by
exception type and message.

One thing is deliberately not the same: when *several* values would make an
aggregate raise, the kernel reports the first in (group, aggregate, row)
order where the old loop reported the first in (row, aggregate) order.
Aggregate arguments here are therefore drawn from one type family per
example; `test_a_failing_aggregate_value_raises_its_own_error` pins the
single-failure case.
"""

import datetime
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.relation import Relation
from repro.common.schema import Column, RelSchema
from repro.common.types import DataType as T
from repro.engine import LocalEngine
from repro.engine.logical import (
    LogicalAggregate,
    LogicalJoin,
    LogicalPlan,
    LogicalProject,
    LogicalSort,
)
from repro.engine.physical import (
    DistinctOp,
    FilterOp,
    LimitOp,
    PhysicalOp,
    ProjectOp,
    RelabelOp,
    ValuesOp,
)
from repro.federation.nodes import LogicalBindJoin
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    IsNull,
    Literal,
    OrderItem,
    SelectItem,
    Star,
    and_all,
)
from repro.sql.eval import compile_expr, compile_predicate
from repro.sql.functions import make_aggregate
from repro.storage import Database

# --- the pre-kernel operators -------------------------------------------------


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


def run_both_aggregates(rows, groups, calls):
    leaf = Rows("t", rows, 4)
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


# --- cost shape and ownership -------------------------------------------------


def python_calls(thunk):
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count_calls)
    try:
        thunk()
    finally:
        sys.setprofile(None)
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


class SameList(PhysicalOp):
    """Hands out one list object run after run, as a `FetchOp` hands out the
    rows of its execution's memoised relation."""

    def __init__(self, schema, rows):
        self.schema = schema
        self.rows = rows

    def run(self):
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
    with build_engine(cache=CacheHierarchy(CacheConfig(result_enabled=False))) as engine:
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
