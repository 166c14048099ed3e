"""Optimizer unit tests plus the central equivalence property:
the optimized plan must return exactly the rows of the unoptimized one."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import LocalEngine
from repro.engine.logical import (
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalScan,
)
from repro.engine.rewrite import fold_constants, prune_columns, push_filters
from repro.sql import parse_expression
from repro.sql.ast import Literal

from tests.conftest import build_demo_db


class TestConstantFolding:
    def fold(self, text):
        return fold_constants(parse_expression(text))

    def test_arithmetic(self):
        assert self.fold("1 + 2 * 3") == Literal(7)

    def test_boolean_identity_true(self):
        assert self.fold("TRUE AND x > 1") == parse_expression("x > 1")

    def test_boolean_false_collapses(self):
        assert self.fold("FALSE AND x > 1") == Literal(False)

    def test_or_true_collapses(self):
        assert self.fold("x > 1 OR TRUE") == Literal(True)

    def test_double_negation(self):
        assert self.fold("NOT NOT (x > 1)") == parse_expression("x > 1")

    def test_function_folding(self):
        assert self.fold("UPPER('ab')") == Literal("AB")

    def test_nested_partial_fold(self):
        assert self.fold("x + (2 + 3)") == parse_expression("x + 5")

    def test_comparison_folding(self):
        assert self.fold("2 > 1") == Literal(True)

    def test_columns_untouched(self):
        expr = parse_expression("a.x + b.y")
        assert fold_constants(expr) == expr


class TestPushdownShapes:
    def plan_for(self, engine, sql):
        from repro.engine.planner import bind_select
        from repro.sql.parser import parse_select

        return bind_select(parse_select(sql), engine.resolver)

    def test_filter_sinks_below_join(self, engine):
        plan = self.plan_for(
            engine,
            "SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id "
            "WHERE c.city = 'SF'",
        )
        pushed = push_filters(plan)
        # Find the scan of customers; its parent chain must include the filter.
        text = pushed.pretty()
        assert text.index("Filter((c.city = 'SF'))") < text.index("Scan(customers AS c)")
        assert "Join" in text.splitlines()[1] or "Join" in text.splitlines()[0]

    def test_join_predicate_becomes_condition(self, engine):
        plan = self.plan_for(
            engine,
            "SELECT c.id FROM customers c, orders o WHERE c.id = o.cust_id",
        )
        pushed = push_filters(plan)
        joins = [
            node for node in pushed.walk() if isinstance(node, LogicalJoin)
        ]
        assert joins and joins[0].condition is not None

    def test_left_join_right_filter_not_pushed_below(self, engine, demo_db):
        demo_db.table("customers").insert((999, "loner", "SF", "smb"))
        unpadded = engine.query(
            "SELECT c.id, o.status FROM customers c LEFT JOIN orders o "
            "ON c.id = o.cust_id WHERE o.status IS NULL"
        )
        assert (999, None) in unpadded.rows

    def test_pruning_narrows_scan(self, engine):
        plan = self.plan_for(
            engine,
            "SELECT o.id FROM orders o WHERE o.total > 100",
        )
        pruned = prune_columns(push_filters(plan))
        scans = [node for node in pruned.walk() if isinstance(node, LogicalScan)]
        projects = [node for node in pruned.walk() if isinstance(node, LogicalProject)]
        # a narrowing Project(id, total) must sit between filter and scan
        widths = [len(p.schema) for p in projects]
        assert 2 in widths

    def test_filter_not_pushed_below_limit(self, engine):
        from repro.engine.logical import LogicalLimit

        plan = self.plan_for(engine, "SELECT id FROM orders LIMIT 5")
        outer = LogicalFilter(plan, parse_expression("id > 3"))
        pushed = push_filters(outer)
        # The filter must remain above the Limit node.
        node = pushed
        assert isinstance(node, LogicalFilter)
        assert any(isinstance(child, LogicalLimit) for child in node.walk())


class TestJoinOrdering:
    def test_selective_side_ordered_first(self, engine):
        text = engine.explain(
            "SELECT c.name FROM customers c, orders o, tickets t "
            "WHERE c.id = o.cust_id AND c.id = t.cust_id AND t.severity = 4"
        )
        assert "HashJoin" in text

    def test_many_table_greedy_path(self, demo_db):
        # 9+ aliases of the same table exercises the greedy (non-DP) path.
        engine = LocalEngine(demo_db)
        aliases = [f"t{i}" for i in range(9)]
        froms = ", ".join(f"customers {a}" for a in aliases)
        conds = " AND ".join(
            f"{a}.id = {b}.id" for a, b in zip(aliases, aliases[1:])
        )
        result = engine.query(
            f"SELECT t0.id FROM {froms} WHERE {conds} AND t0.id < 4"
        )
        assert sorted(result.column_values("id")) == [1, 2, 3]


#: joins under an aggregate the eager-aggregation rule rewrites: INNER, LEFT
#: (the null-supplying side grouped) and without GROUP BY
EAGER = [
    "SELECT c.city, COUNT(*) AS n, SUM(o.total) AS s, AVG(o.total) AS a, MIN(o.total) AS lo "
    "FROM customers c JOIN orders o ON c.id = o.cust_id WHERE o.status = 'open' GROUP BY c.city",
    "SELECT c.segment, COUNT(*) AS n, COUNT(t.id) AS tickets, AVG(t.severity) AS mean "
    "FROM customers c LEFT JOIN tickets t ON t.cust_id = c.id GROUP BY c.segment",
    "SELECT COUNT(*) AS n, SUM(o.total) AS s, MAX(c.id) AS top FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE c.segment = 'smb'",
]

QUERIES = [
    "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id "
    "WHERE o.total > 150 AND c.city = 'SF'",
    "SELECT c.city, COUNT(*) AS n FROM customers c JOIN orders o ON c.id = o.cust_id "
    "GROUP BY c.city HAVING COUNT(*) > 10",
    "SELECT t.severity, AVG(o.total) FROM tickets t "
    "JOIN customers c ON t.cust_id = c.id "
    "JOIN orders o ON o.cust_id = c.id GROUP BY t.severity",
    "SELECT DISTINCT c.segment FROM customers c WHERE c.id IN (1, 2, 3, 4)",
    "SELECT c.id, o.id FROM customers c LEFT JOIN orders o "
    "ON c.id = o.cust_id AND o.status = 'open' WHERE c.id < 5",
    "SELECT o.status, SUM(o.total) AS s FROM orders o GROUP BY o.status ORDER BY s DESC",
    "SELECT c.name FROM customers c WHERE c.id NOT IN (1, 2) AND c.name LIKE 'cust%' LIMIT 7",
    "SELECT o.cust_id, COUNT(DISTINCT o.status) FROM orders o GROUP BY o.cust_id",
    *EAGER,
]


@given(st.sampled_from(QUERIES))
@settings(max_examples=len(QUERIES), deadline=None)
def test_optimized_plan_equivalent_to_naive(sql):
    """Property: optimization never changes query results (up to row order)."""
    db = build_demo_db()
    optimized = LocalEngine(db, optimize=True).query(sql).sorted()
    naive = LocalEngine(db, optimize=False).query(sql).sorted()
    assert optimized.rows == naive.rows


@pytest.mark.parametrize("sql", EAGER, ids=["inner", "left", "global"])
def test_the_eager_shapes_pre_aggregate_a_join_input(sql):
    db = build_demo_db()
    optimized, naive = LocalEngine(db), LocalEngine(db, optimize=False)
    assert "Alias(" in optimized.logical_plan(sql).pretty()
    assert "Alias(" not in naive.logical_plan(sql).pretty()
    assert optimized.query(sql).sorted().rows == naive.query(sql).sorted().rows


@given(
    low=st.integers(min_value=0, max_value=400),
    status=st.sampled_from(["open", "closed", "void"]),
    use_or=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_random_filter_equivalence(low, status, use_or):
    """Optimized vs naive agreement on randomly parameterized predicates."""
    db = build_demo_db()
    connector = "OR" if use_or else "AND"
    sql = (
        f"SELECT o.id, c.name FROM orders o JOIN customers c ON o.cust_id = c.id "
        f"WHERE o.total > {low} {connector} o.status = '{status}'"
    )
    optimized = LocalEngine(db, optimize=True).query(sql).sorted()
    naive = LocalEngine(db, optimize=False).query(sql).sorted()
    assert optimized.rows == naive.rows
