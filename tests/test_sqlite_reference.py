"""The federated engine against stdlib `sqlite3` (`tests/sqlite_reference.py`).

sqlite shares no code with the engine, so these checks see what the
`LocalEngine` oracles cannot: a logical rewrite that is wrong for both.
"""

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.common.errors import TypeMismatchError
from repro.federation import FederatedEngine

from tests.sqlite_reference import (
    REL_TOL,
    SqliteReference,
    affinity_gap,
    mismatch,
    row_mismatch,
)

#: a WHERE conjunct on the null-supplying side of a LEFT join: it drops the
#: padded rows, so SQL answers 76 rows at scale 1 (215 when it moved into ON)
OUTER_WHERE = (
    "SELECT c.id, t.severity FROM customers c LEFT JOIN tickets t "
    "ON t.cust_id = c.id WHERE t.severity = 3"
)

#: shapes the eager-aggregation rule rewrites (one input grouped by its join
#: key before the join), at the hub before a cross-source join - Q5, Q6, Q9,
#: Q12 and each decomposition, null-supplying partials and a global aggregate
#: among them - or at a source
EAGER_SHAPES = [
    QUERIES["q5_city_revenue"],
    QUERIES["q6_region_rollup"],
    QUERIES["q9_segment_analytics"],
    QUERIES["q12_customer360"],
    "SELECT c.segment, COUNT(o.total) AS n, MIN(o.total) AS lo, MAX(o.total) AS hi, "
    "AVG(o.total) AS mean, SUM(o.quantity) AS units FROM customers c "
    "JOIN orders o ON c.id = o.cust_id GROUP BY c.segment",
    "SELECT c.city, COUNT(*) AS n, SUM(o.total) AS revenue, COUNT(o.id) AS orders, "
    "AVG(o.total) AS mean FROM customers c LEFT JOIN orders o ON o.cust_id = c.id "
    "GROUP BY c.city",
    "SELECT c.segment, COUNT(*) AS n, AVG(t.severity) AS severity, MAX(t.severity) AS worst "
    "FROM customers c LEFT JOIN tickets t ON t.cust_id = c.id GROUP BY c.segment",
    "SELECT COUNT(*) AS n, SUM(o.total) AS revenue FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE c.segment = 'smb'",
    "SELECT r.region, SUM(i.amount) AS billed, COUNT(i.amount) AS n FROM customers c "
    "JOIN invoices i ON i.cust_id = c.id JOIN regions r ON r.city = c.city "
    "WHERE i.paid = FALSE GROUP BY r.region",
    # answered whole by the sales source, which pre-aggregates under its own
    # GROUP BY: q10, and a LEFT join whose orders side is null-supplying
    QUERIES["q10_product_mix"],
    "SELECT p.category, COUNT(*) AS n, AVG(o.total) AS mean, COUNT(o.id) AS orders "
    "FROM products p LEFT JOIN orders o ON o.product_id = p.id GROUP BY p.category",
]


#: statements a source answers whole, whose plain-column projections
#: lowering reads through instead of building: a join under an aggregate,
#: a self-join (equal column names on both sides, read by position), a
#: LEFT join whose residual reads both pruned inputs, a GROUP BY on an
#: expression (a compiled reader), and DISTINCT / ORDER BY over renaming
#: projections (a hidden sort column trimmed above a LIMIT)
FUSED_SHAPES = [
    "SELECT p.category, COUNT(*) AS n, SUM(o.total) AS revenue, MAX(o.quantity) AS most "
    "FROM orders o JOIN products p ON p.id = o.product_id WHERE o.status = 'open' "
    "GROUP BY p.category",
    "SELECT a.id, b.id, a.name, b.city FROM customers a JOIN customers b "
    "ON a.city = b.city AND a.id < b.id WHERE a.segment = 'smb' AND b.segment = 'enterprise'",
    "SELECT a.city, COUNT(*) AS pairs, MAX(b.id) AS top FROM customers a "
    "JOIN customers b ON a.city = b.city GROUP BY a.city",
    "SELECT p.id, p.name, o.id, o.quantity FROM products p LEFT JOIN orders o "
    "ON o.product_id = p.id AND o.quantity > 4 AND o.total < p.price * 5",
    "SELECT o.quantity + 1 AS q, COUNT(*) AS n, SUM(o.total) AS revenue FROM orders o "
    "GROUP BY o.quantity + 1",
    "SELECT DISTINCT o.status AS s FROM orders o WHERE o.total > 100 ORDER BY s",
    "SELECT o.status AS s, o.id AS n FROM orders o WHERE o.total > 100 "
    "ORDER BY o.total DESC, n LIMIT 20",
]


#: `%` over int pairs with negative dividends, negative divisors and zero
#: divisors, in the select list and in a filter: the remainder takes the
#: dividend's sign, and a zero divisor gives NULL (as `/` does)
REMAINDERS = (
    "SELECT o.id, (o.id - 500) % 7 AS a, (o.id - 500) % -7 AS b, "
    "o.quantity % (o.quantity - 4) AS c, (5 - o.quantity) % (o.id % 5 - 2) AS d, "
    "o.id % 0 AS z FROM orders o WHERE (o.id - 500) % (o.quantity - 5) <> 1"
)


@pytest.fixture(scope="module", params=[1, 4, 16], ids=["scale1", "scale4", "scale16"])
def stack(request):
    fixture = build_enterprise(BenchConfig(scale=request.param, seed=42))
    return request.param, FederatedEngine(fixture.catalog()), SqliteReference(fixture)


def check(engine, reference, sql):
    rows = engine.query(sql).relation.rows
    assert row_mismatch(rows, reference.query(sql)) is None, sql
    return rows


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_eiibench_queries_agree_with_sqlite(stack, name):
    _, engine, reference = stack
    check(engine, reference, QUERIES[name])


def test_a_where_on_the_null_supplying_side_drops_padded_rows(stack):
    scale, engine, reference = stack
    rows = check(engine, reference, OUTER_WHERE)
    assert all(severity == 3 for _, severity in rows)
    if scale == 1:
        assert len(rows) == 76


@pytest.mark.parametrize("sql", EAGER_SHAPES, ids=range(len(EAGER_SHAPES)))
def test_pre_aggregated_shapes_agree_with_sqlite(stack, sql):
    _, engine, reference = stack
    check(engine, reference, sql)
    plan = engine.planner.plan(sql)
    assert any(fetch.stmt.group_by for fetch in plan.fetches), plan.pretty()
    at_a_source = [
        fetch.source.engine.logical_plan(fetch.stmt).pretty()
        for fetch in plan.fetches if hasattr(fetch.source, "engine")
    ]
    assert "Alias(" in plan.pretty() or any("Alias(" in text for text in at_a_source)


@pytest.mark.parametrize("sql", FUSED_SHAPES, ids=range(len(FUSED_SHAPES)))
def test_fused_projections_agree_with_sqlite(stack, sql):
    _, engine, reference = stack
    check(engine, reference, sql)
    assert len(engine.planner.plan(sql).fetches) == 1  # answered whole by one source


def test_a_remainder_takes_the_dividends_sign_and_zero_divides_to_null(stack):
    _, engine, reference = stack
    rows = check(engine, reference, REMAINDERS)
    assert {row[5] for row in rows} == {None}
    assert min(row[1] for row in rows) < 0 < max(row[2] for row in rows)
    assert any(row[3] is None for row in rows) and any(row[4] is None for row in rows)


#: `/` over INT operands, a negative dividend among them
DIVISIONS = "SELECT o.id, o.id / 2 AS half, (0 - o.id) / 2 AS neg FROM orders o WHERE o.id IN (7, 8)"


def test_int_division_is_true_division_where_sqlite_truncates(stack):
    _, engine, reference = stack
    assert engine.query(DIVISIONS).relation.sorted().rows == [(7, 3.5, -3.5), (8, 4.0, -4.0)]
    assert sorted(reference.query(DIVISIONS)) == [(7, 3, -3), (8, 4, -4)]
    assert row_mismatch(engine.query(DIVISIONS).relation.rows, reference.query(DIVISIONS))
    float_remainder = "SELECT o.id, o.id + 0.5 AS x, (o.id + 0.5) % 2 AS r FROM orders o WHERE o.id = 7"
    assert engine.query(float_remainder).relation.rows == [(7, 7.5, 1.5)]
    assert reference.query(float_remainder) == [(7, 7.5, 1)]


#: a LEFT join's null-supplying column ordered both ways, with a tie-breaker
#: that makes the order total
NULLS_ORDERED = (
    "SELECT c.id AS cid, t.id AS tid, t.severity FROM customers c "
    "LEFT JOIN tickets t ON t.cust_id = c.id ORDER BY t.severity {}, cid, tid"
)


@pytest.mark.parametrize("direction", ["ASC", "DESC"])
def test_nulls_sort_first_ascending_and_last_descending_in_both(stack, direction):
    _, engine, reference = stack
    sql = NULLS_ORDERED.format(direction)
    rows = engine.query(sql).relation.rows
    assert rows == reference.query(sql)
    padded = [row[2] is None for row in rows]
    assert any(padded) and not all(padded)
    first = padded.index(False) if direction == "ASC" else padded.index(True)
    assert padded == [direction == "ASC"] * first + [direction != "ASC"] * (len(rows) - first)


def test_the_comparison_is_exact_but_for_floats():
    assert row_mismatch([(1, "a", 2.0)], [(1, "a", 2.0 * (1 + REL_TOL / 2))]) is None
    assert row_mismatch([(1, "a", 2.0)], [(1, "a", 2.0 * (1 + REL_TOL * 4))]) is not None
    assert row_mismatch([(1, "a")], [(2, "a")]) is not None
    assert row_mismatch([(1, "a"), (1, "a")], [(1, "a"), (2, "a")]) is not None
    assert row_mismatch([(True, None)], [(1, None)]) is None
    assert row_mismatch([(True,)], [(0,)]) is not None


#: statements in each of `AFFINITY_GAPS`: the engine refuses them as
#: mistyped (EII104), sqlite answers them by type affinity
GAP_STATEMENTS = {
    "SUM or AVG over text": [
        "SELECT SUM(name) FROM customers",
        "SELECT segment, AVG(city) AS a FROM customers GROUP BY segment",
    ],
    "a string ordered against a number": [
        "SELECT id FROM customers WHERE name > 3",
        "SELECT id FROM customers WHERE id BETWEEN 'a' AND 'z'",
    ],
    "a condition that is not a bool": [
        "SELECT id FROM customers WHERE id",
        "SELECT id FROM customers WHERE NOT name",
    ],
}


@pytest.mark.parametrize("gap", sorted(GAP_STATEMENTS))
def test_an_affinity_gap_is_a_refusal_not_a_row_mismatch(stack, gap):
    _, engine, reference = stack
    for sql in GAP_STATEMENTS[gap]:
        with pytest.raises(TypeMismatchError) as caught:
            engine.query(sql)
        assert caught.value.code == "EII104" and affinity_gap(caught.value) == gap, sql
        reference.query(sql)  # sqlite answers it, by affinity
        assert mismatch(engine, reference, sql) is None, sql


def test_what_sqlite_answers_in_each_gap(stack):
    scale, _, reference = stack
    customers = reference.query("SELECT COUNT(*) FROM customers")[0][0]
    assert reference.query("SELECT SUM(name) FROM customers") == [(0.0,)]
    assert len(reference.query("SELECT id FROM customers WHERE name > 3")) == customers
    assert len(reference.query("SELECT id FROM customers WHERE NOT name")) == customers


def test_a_refusal_outside_the_gaps_is_still_a_mismatch(stack):
    _, engine, reference = stack
    with pytest.raises(TypeMismatchError):
        mismatch(engine, reference, "SELECT UPPER(id) FROM customers")
    # `=` across types is only warned about: both answer no row
    assert mismatch(engine, reference, "SELECT id FROM customers WHERE name = 3") is None
    assert engine.query("SELECT id FROM customers WHERE name = 3").relation.rows == []
