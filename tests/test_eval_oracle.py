"""Property test: compiled expression evaluation vs a direct Python oracle.

Hypothesis builds random arithmetic/comparison trees over integer columns;
the compiled evaluator must agree with a straightforward recursive
interpreter, including NULL propagation. The second half holds the
compiled IN-list hash probe, and comparisons against a literal, to the
per-row, per-item interpreter over mixed types.
"""

import datetime
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import TypeMismatchError
from repro.common.schema import RelSchema
from repro.common.types import DataType as T
from repro.sql.ast import BinaryOp, ColumnRef, InList, Literal, UnaryOp
from repro.sql.eval import compile_expr

SCHEMA = RelSchema.of(("a", T.INT), ("b", T.INT), ("c", T.INT))

_atoms = st.one_of(
    st.sampled_from([ColumnRef("a"), ColumnRef("b"), ColumnRef("c")]),
    st.integers(min_value=-20, max_value=20).map(Literal),
    st.just(Literal(None)),
)


def _trees(children):
    arith = st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
        lambda t: BinaryOp(t[0], t[1], t[2])
    )
    neg = children.map(lambda e: UnaryOp("-", e))
    return st.one_of(arith, neg)


arith_trees = st.recursive(_atoms, _trees, max_leaves=10)


def oracle(expr, row):
    """Direct interpretation with SQL NULL propagation."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return row[SCHEMA.index_of(expr.name)]
    if isinstance(expr, UnaryOp):
        value = oracle(expr.operand, row)
        return None if value is None else -value
    left = oracle(expr.left, row)
    right = oracle(expr.right, row)
    if left is None or right is None:
        return None
    return {"+": left + right, "-": left - right, "*": left * right}[expr.op]


rows = st.tuples(
    st.one_of(st.integers(-50, 50), st.none()),
    st.one_of(st.integers(-50, 50), st.none()),
    st.one_of(st.integers(-50, 50), st.none()),
)


@given(expr=arith_trees, row=rows)
@settings(max_examples=250, deadline=None)
def test_compiled_arithmetic_matches_oracle(expr, row):
    assert compile_expr(expr, SCHEMA)(row) == oracle(expr, row)


@given(expr=arith_trees, other=arith_trees, row=rows)
@settings(max_examples=150, deadline=None)
def test_compiled_comparison_matches_oracle(expr, other, row):
    for op in ("=", "<", ">="):
        comparison = BinaryOp(op, expr, other)
        left = oracle(expr, row)
        right = oracle(other, row)
        expected = (
            None
            if left is None or right is None
            else {"=": left == right, "<": left < right, ">=": left >= right}[op]
        )
        assert compile_expr(comparison, SCHEMA)(row) == expected


# --- compiled IN-lists and literal comparisons vs the per-item interpreter ---
#
# The reference below is the evaluator as it stood before IN-lists compiled
# to a frozenset probe: every item is visited and aligned per row. The
# compiled closures must give its result, or raise its exception type, on
# any mix of values.

ANY_SCHEMA = RelSchema.of(("v", T.ANY), ("w", T.ANY))


class Tagged(int):
    """An int subclass: takes the probe as operand, forces the loop as item."""


def ref_align_numeric(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a, b
    if isinstance(a, int) and isinstance(b, float):
        return float(a), b
    if isinstance(a, float) and isinstance(b, int):
        return a, float(b)
    return a, b


def ref_values_equal(a, b):
    a, b = ref_align_numeric(a, b)
    try:
        return a == b
    except TypeError:
        return False


def ref_in(value, items, negated):
    if value is None:
        return None
    found = False
    saw_null = False
    for item in items:
        if item is None:
            saw_null = True
        elif ref_values_equal(value, item):
            found = True
            break
    if found:
        return not negated
    if saw_null:
        return None
    return negated


PY_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def ref_cmp(op, lhs, rhs):
    if lhs is None or rhs is None:
        return None
    lhs, rhs = ref_align_numeric(lhs, rhs)
    try:
        return PY_COMPARE[op](lhs, rhs)
    except TypeError as exc:
        raise TypeMismatchError(str(exc)) from exc


def outcome(thunk):
    """("ok", result) or ("raise", exception type) of calling `thunk`."""
    try:
        return ("ok", thunk())
    except Exception as exc:  # the type is what is compared
        return ("raise", type(exc))


NAN = float("nan")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 4),
    st.sampled_from(
        [2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**53 + 2, 2**64, 10**400]
    ),
    st.integers(-4, 4).map(float),
    st.sampled_from(
        [0.5, -0.0, NAN, float("inf"), float("-inf"), 2.0**53, 2.0**53 + 2, 1e300]
    ),
    st.sampled_from(["", "1", "5", "a", "é"]),
    st.sampled_from(
        [
            datetime.date(2005, 6, 14),
            datetime.date(2005, 6, 15),
            datetime.datetime(2005, 6, 14),
        ]
    ),
    st.sampled_from([Tagged(1), Tagged(2**53 + 1)]),
    st.just([1]),  # unhashable
)

#: An IN-list item: mostly literals, now and then the other column.
in_items = st.one_of(scalars.map(Literal), scalars.map(Literal), st.just(ColumnRef("w")))


@given(
    value=scalars,
    other=scalars,
    items=st.lists(in_items, min_size=1, max_size=6),
    negated=st.booleans(),
)
@example(value=2**53 + 1, other=None, items=[Literal(2.0**53)], negated=False)
@example(value=2.0**53, other=None, items=[Literal(2**53 + 1)], negated=False)
@example(value=10**400, other=None, items=[Literal(0.5), Literal(3)], negated=True)
@example(value=10**400, other=None, items=[Literal(1), Literal(1.0)], negated=False)
@example(value=NAN, other=None, items=[Literal(NAN), Literal(None)], negated=False)
@example(value=[1], other=None, items=[Literal(1), Literal("a")], negated=False)
@settings(max_examples=600, deadline=None)
def test_compiled_in_list_matches_per_item_interpreter(value, other, items, negated):
    row = (value, other)
    item_values = [
        item.value if isinstance(item, Literal) else other for item in items
    ]
    compiled = compile_expr(InList(ColumnRef("v"), tuple(items), negated), ANY_SCHEMA)
    expected = outcome(lambda: ref_in(value, item_values, negated))
    assert outcome(lambda: compiled(row)) == expected


@given(value=scalars, literal=scalars, op=st.sampled_from(sorted(PY_COMPARE)))
@example(value=2**53 + 1, literal=2.0**53, op="=")
@example(value=2.0**53, literal=2**53 + 1, op="=")
@example(value=10**400, literal=0.5, op="<")
@example(value="a", literal=5, op="<")
@settings(max_examples=600, deadline=None)
def test_literal_comparison_matches_per_row_alignment(value, literal, op):
    row = (value, None)
    on_right = compile_expr(BinaryOp(op, ColumnRef("v"), Literal(literal)), ANY_SCHEMA)
    on_left = compile_expr(BinaryOp(op, Literal(literal), ColumnRef("v")), ANY_SCHEMA)
    assert outcome(lambda: on_right(row)) == outcome(lambda: ref_cmp(op, value, literal))
    assert outcome(lambda: on_left(row)) == outcome(lambda: ref_cmp(op, literal, value))


@pytest.mark.parametrize(
    "value, items, negated, expected",
    [
        (True, [1], False, True),  # TRUE IN (1)
        (5, ["5", 5.0], False, True),  # 5 IN ('5', 5.0)
        (5, [1, None], True, None),  # 5 NOT IN (1, NULL)
        (5, [5, None], True, False),  # found wins over the NULL item
        (None, [1, 2], False, None),
        (1.0, [True], False, True),
        ("5", [5], False, False),
        (2**53 + 1, [2.0**53], False, True),  # float(2**53 + 1) rounds down
        (NAN, [NAN], False, False),
    ],
)
def test_in_list_corner_answers(value, items, negated, expected):
    expr = InList(ColumnRef("v"), tuple(Literal(item) for item in items), negated)
    assert compile_expr(expr, ANY_SCHEMA)((value, None)) is expected
