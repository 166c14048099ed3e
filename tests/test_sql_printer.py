"""SQL generation tests, including a hypothesis round-trip property."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ParseError
from repro.sql import parse, parse_expression, to_sql
from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    JoinClause,
    Like,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    TableRef,
    UnaryOp,
    UnionSelect,
)
from repro.sql.lexer import mask
from repro.sql.printer import PrintOptions, expr_to_sql


class TestStatementPrinting:
    def test_select_round_trip_text(self):
        text = (
            "SELECT a.x AS v, COUNT(*) AS n FROM t AS a LEFT JOIN u AS b "
            "ON (a.id = b.id) WHERE (a.y > 3) GROUP BY a.x "
            "HAVING (COUNT(*) > 1) ORDER BY n DESC LIMIT 5"
        )
        assert to_sql(parse(text)) == text

    def test_insert(self):
        text = "INSERT INTO t (a, b) VALUES (1, 'x')"
        assert to_sql(parse(text)) == text

    def test_update(self):
        text = "UPDATE t SET a = (a + 1) WHERE (id = 3)"
        assert to_sql(parse(text)) == text

    def test_delete(self):
        text = "DELETE FROM t WHERE (x < 0)"
        assert to_sql(parse(text)) == text

    def test_string_escaping(self):
        stmt = parse("SELECT * FROM t WHERE name = 'it''s'")
        assert "'it''s'" in to_sql(stmt)


class TestNumberLiterals:
    def test_an_exponent_reads_as_a_float(self):
        stmt = parse("SELECT 1.5e3 AS x, 2E-2 AS y, .5e+1 AS z FROM t")
        assert [item.expr for item in stmt.items] == [Literal(1500.0), Literal(0.02), Literal(5.0)]

    def test_a_float_printed_with_an_exponent_parses_back(self):
        stmt = parse("SELECT id FROM orders WHERE total > 0.00001")
        assert "1e-05" in to_sql(stmt) and parse(to_sql(stmt)) == stmt

    def test_a_number_beyond_a_float_is_refused(self):
        for text in ("SELECT 1e400 AS x FROM t", "SELECT id FROM t WHERE x > -1.5E309"):
            with pytest.raises(ParseError, match="out of range"):
                parse(text)
            assert mask(text) is None


class TestDialectOptions:
    def test_function_rename(self):
        options = PrintOptions(function_names={"SUBSTR": "SUBSTRING"})
        expr = parse_expression("SUBSTR(a, 1, 2)")
        assert expr_to_sql(expr, options) == "SUBSTRING(a, 1, 2)"

    def test_concat_function_spelling(self):
        options = PrintOptions(concat_operator="+")
        assert expr_to_sql(parse_expression("a || b"), options) == "(a + b)"

    def test_integer_booleans(self):
        options = PrintOptions(integer_booleans=True)
        assert expr_to_sql(Literal(True), options) == "1"


# -- property-based round trip ------------------------------------------------

_columns = st.sampled_from(
    [ColumnRef("x", "t"), ColumnRef("y", "t"), ColumnRef("z", None)]
)
_literals = st.one_of(
    st.integers(min_value=-1000, max_value=1000).map(Literal),
    # finite floats: `repr` prints some with an exponent (1e-05, 1e+16, 5e-324)
    st.floats(allow_nan=False, allow_infinity=False).map(Literal),
    st.sampled_from([1e-05, 1e16, 5e-324, -2.5e-07, 1.5e300]).map(Literal),
    st.booleans().map(Literal),
    st.just(Literal(None)),
    st.text(alphabet="abc'% _", min_size=0, max_size=6).map(Literal),
    st.dates(
        min_value=datetime.date(1990, 1, 1), max_value=datetime.date(2030, 1, 1)
    ).map(Literal),
)
_atoms = st.one_of(_columns, _literals)


def _exprs(children):
    comparison = st.tuples(
        st.sampled_from(["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/"]),
        children,
        children,
    ).map(lambda t: BinaryOp(t[0], t[1], t[2]))
    logical = st.tuples(st.sampled_from(["AND", "OR"]), children, children).map(
        lambda t: BinaryOp(t[0], t[1], t[2])
    )
    negation = children.map(lambda e: UnaryOp("NOT", e))
    isnull = st.tuples(children, st.booleans()).map(lambda t: IsNull(t[0], t[1]))
    inlist = st.tuples(
        children, st.lists(_literals, min_size=1, max_size=3), st.booleans()
    ).map(lambda t: InList(t[0], tuple(t[1]), t[2]))
    like = st.tuples(_columns, st.text(alphabet="ab%_", max_size=5), st.booleans()).map(
        lambda t: Like(t[0], Literal(t[1]), t[2])
    )
    between = st.tuples(children, _literals, _literals, st.booleans()).map(
        lambda t: Between(t[0], t[1], t[2], t[3])
    )
    func = st.tuples(
        st.sampled_from(["UPPER", "LOWER", "COALESCE", "ABS"]),
        st.lists(children, min_size=1, max_size=2),
    ).map(lambda t: FuncCall(t[0], tuple(t[1])))
    return st.one_of(comparison, logical, negation, isnull, inlist, like, between, func)


expression_trees = st.recursive(_atoms, _exprs, max_leaves=12)


@given(expression_trees)
@settings(max_examples=300, deadline=None)
def test_expression_print_parse_round_trip(expr):
    """parse(print(e)) == e for every generatable expression tree.

    Caveat handled inside: printing a *string* literal that looks like an ISO
    date re-parses as a DATE literal by design, so the strategy's string
    alphabet excludes digits.
    """
    printed = expr_to_sql(expr)
    reparsed = parse_expression(printed)
    assert reparsed == expr, f"{printed!r} reparsed as {reparsed}"


# -- statement-level round trip ----------------------------------------------
#
# The static analyzer keys grouping checks on canonically printed SQL
# (`expr_to_sql(e).lower()`), so the printer and parser must agree on whole
# statements, not just expressions.

_aliases = st.sampled_from([None, "v", "w"])
_select_items = st.tuples(expression_trees, _aliases).map(
    lambda t: SelectItem(t[0], t[1])
)
_table_refs = st.sampled_from(
    [TableRef("t"), TableRef("tbl", "t"), TableRef("u"), TableRef("other", "u")]
)
_order_items = st.tuples(_columns, st.booleans()).map(
    lambda t: OrderItem(t[0], t[1])
)


def _dedupe_bindings(tables):
    seen, out = set(), []
    for table in tables:
        if table.binding not in seen:
            seen.add(table.binding)
            out.append(table)
    return tuple(out)


select_statements = st.builds(
    Select,
    items=st.lists(_select_items, min_size=1, max_size=3).map(tuple),
    from_tables=st.lists(_table_refs, min_size=1, max_size=2).map(
        _dedupe_bindings
    ),
    joins=st.lists(
        st.tuples(
            st.sampled_from([TableRef("j1"), TableRef("joined", "j2")]),
            st.sampled_from(["INNER", "LEFT"]),
            expression_trees,
        ).map(lambda t: JoinClause(t[0], t[1], t[2])),
        max_size=1,
    ).map(tuple),
    where=st.none() | expression_trees,
    group_by=st.lists(_columns, max_size=2, unique=True).map(tuple),
    having=st.none() | expression_trees,
    order_by=st.lists(_order_items, max_size=2).map(tuple),
    limit=st.none() | st.integers(min_value=0, max_value=99),
    distinct=st.booleans(),
)


@given(select_statements)
@settings(max_examples=200, deadline=None)
def test_statement_print_parse_round_trip(stmt):
    """parse(to_sql(s)) == s for every generatable SELECT statement."""
    printed = to_sql(stmt)
    reparsed = parse(printed)
    assert reparsed == stmt, f"{printed!r} reparsed as {to_sql(reparsed)!r}"


@given(
    st.lists(select_statements, min_size=2, max_size=3).map(tuple),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_union_print_parse_round_trip(selects, all_flag):
    # order_by/limit on branches would be lifted to the union by the parser,
    # so the branch statements must not carry their own
    trimmed = tuple(
        Select(
            items=s.items,
            from_tables=s.from_tables,
            joins=s.joins,
            where=s.where,
            group_by=s.group_by,
            having=s.having,
        )
        for s in selects
    )
    stmt = UnionSelect(trimmed, all=all_flag)
    assert parse(to_sql(stmt)) == stmt
