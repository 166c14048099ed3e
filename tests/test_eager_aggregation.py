"""Eager aggregation: one rule (`repro.engine.rewrite.eager_aggregate`)
pre-aggregates a join input by its join key, at the hub before a
cross-source join and at a source under its own GROUP BY.

Counts, not timings: what ships, what reaches an aggregate, and which plans
move. The reference for "unchanged" is the planner with the hub's rule as
the identity (the plan it replaced); rows are held against stdlib `sqlite3`
(`tests/sqlite_reference.py`).
"""

import sys
from unittest import mock

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.engine import rewrite
from repro.engine.logical import LogicalAggregate, LogicalPlan
from repro.engine.physical import HashAggregateOp
from repro.engine.planner import bind_select
from repro.engine.rewrite import eager_aggregate, optimize_logical
from repro.federation import EngineConfig, FederatedEngine, FederatedPlanner
from repro.federation import planner as federated_planner
from repro.sql.ast import FuncCall, Literal
from repro.sql.exprutil import transform
from repro.sql.parser import parse
from repro.trace.analyze import instrument_physical
from repro.wrappers.dialects import CONSERVATIVE
from tests.sqlite_reference import SqliteReference, row_mismatch

UNMOVED = [
    "q1_point_lookup",
    "q2_filter_scan",
    "q3_source_aggregate",
    "q4_crm_sales_join",
    "q7_support_risk",
    "q8_unpaid_invoices",
    "q10_product_mix",
    "q11_credit_check",
]

#: adhoc_lookup_s1's customer360: orders is a bind join's probe, left alone
ADHOC_360 = (
    "SELECT c.name, c.city, SUM(o.total) AS revenue, COUNT(DISTINCT t.id) AS tickets, "
    "MAX(cr.score) AS score FROM customers c JOIN orders o ON c.id = o.cust_id "
    "LEFT JOIN tickets t ON t.cust_id = c.id JOIN credit cr ON cr.cust_id = c.id "
    "WHERE c.id = 7 GROUP BY c.name, c.city"
)

#: COUNT(*) over a null-supplying pre-aggregated side: customers without an
#: order keep one padded row each, which counts 1
PADDED_COUNT = (
    "SELECT c.city, COUNT(*) AS n FROM customers c "
    "LEFT JOIN orders o ON o.cust_id = c.id GROUP BY c.city"
)


@pytest.fixture(scope="module", params=[1, 4], ids=["scale1", "scale4"])
def scaled(request):
    return request.param, build_enterprise(BenchConfig(scale=request.param, seed=42))


@pytest.fixture(scope="module")
def fixture():
    return build_enterprise(BenchConfig(scale=1, seed=42))


def replaced_planner(catalog) -> FederatedPlanner:
    """The planner without eager aggregation at the hub: the one it replaced.
    While it plans, the hub's rule is the identity (sources keep theirs)."""
    planner = FederatedPlanner(catalog)
    plan = planner.plan

    def without_the_rule(query):
        with mock.patch.object(federated_planner, "eager_aggregate", lambda node, *args: node):
            return plan(query)

    planner.plan = without_the_rule
    return planner


def replaced_plan(catalog, sql):
    return replaced_planner(catalog).plan(sql)


def aggregate_input(physical) -> int:
    """Rows the topmost hash aggregate of an instrumented, run tree folded
    (an analyzed run's `result.physical`, say)."""
    ops, stack = [], [physical]
    while stack:
        op = stack.pop()
        ops.append(op)
        stack.extend(op.children)
    (aggregate, *_) = [op for op in ops if isinstance(op, HashAggregateOp)]
    return aggregate.child.actual_rows


def test_q12_ships_per_customer_partials_from_sales(scaled):
    scale, fixture = scaled
    result = FederatedEngine(fixture.catalog()).query(QUERIES["q12_customer360"], analyze=True)
    (sales,) = [fetch for fetch in result.plan.fetches if fetch.source.name == "sales"]
    assert [str(expr) for expr in sales.stmt.group_by] == ["o.cust_id"]
    assert result.metrics.rows_shipped <= {1: 150, 4: 450}[scale]
    assert aggregate_input(result.physical) == {1: 20, 4: 48}[scale]


def test_the_same_input_gives_byte_identical_rows(fixture):
    for name in ("q5_city_revenue", "q6_region_rollup", "q9_segment_analytics", "q12_customer360"):
        runs = [FederatedEngine(fixture.catalog()).query(QUERIES[name]) for _ in range(2)]
        runs.append(FederatedEngine(fixture.catalog()).query(QUERIES[name]))
        assert len({repr(run.relation.rows) for run in runs}) == 1, name


@pytest.mark.parametrize(
    "sql",
    [QUERIES[name] for name in UNMOVED] + [ADHOC_360],
    ids=UNMOVED + ["adhoc_customer360"],
)
def test_plans_without_a_cross_source_group_by_do_not_move(fixture, sql):
    catalog = fixture.catalog()
    replaced = FederatedEngine(catalog, EngineConfig(planner=replaced_planner(catalog)))
    assert FederatedEngine(catalog).query(sql).explain() == replaced.query(sql).explain()


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT c.city, COUNT(DISTINCT o.total) AS n, SUM(o.total) AS revenue "
        "FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.city",
        # SUM of another input's column would see the partial's multiplicity
        "SELECT c.segment, SUM(c.id) AS ids, SUM(o.total) AS revenue "
        "FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.segment",
        # an aggregate reading both inputs
        "SELECT c.segment, SUM(o.total * c.id) AS weighted "
        "FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.segment",
    ],
    ids=["count_distinct", "sum_of_other_input", "mixed_argument"],
)
def test_a_non_decomposable_aggregate_leaves_the_plan_alone(fixture, sql):
    catalog = fixture.catalog()
    assert FederatedPlanner(catalog).plan(sql).pretty() == replaced_plan(catalog, sql).pretty()


def test_the_rewrite_pays_in_shipped_rows(fixture):
    catalog = fixture.catalog()
    for name in ("q5_city_revenue", "q6_region_rollup", "q9_segment_analytics", "q12_customer360"):
        sql = QUERIES[name]
        rewritten = FederatedPlanner(catalog).plan(sql)
        assert sum(f.est_rows for f in rewritten.fetches) < sum(
            f.est_rows for f in replaced_plan(catalog, sql).fetches
        ), name


@pytest.mark.parametrize(
    "name", ["q5_city_revenue", "q6_region_rollup", "q9_segment_analytics", "q12_customer360"]
)
def test_the_rewrite_moves_neither_the_site_nor_a_join_method(scaled, name):
    """A grouped fetch still reads its whole input at the source: the plan
    assembles where it did, and no join becomes (or stops being) a bind join."""
    _, fixture = scaled
    catalog = fixture.catalog()
    rewritten = FederatedPlanner(catalog).plan(QUERIES[name])
    replaced = replaced_plan(catalog, QUERIES[name])
    assert rewritten.assembly_site == replaced.assembly_site
    assert [bind.label() for bind in rewritten.bind_joins] == [
        bind.label() for bind in replaced.bind_joins
    ]
    assert "GROUP BY" in " ".join(fetch.label() for fetch in rewritten.fetches)


def test_a_source_that_cannot_aggregate_gets_its_partial_at_the_hub(fixture):
    catalog = fixture.catalog(sales_dialect=CONSERVATIVE)
    result = FederatedEngine(catalog).query(QUERIES["q12_customer360"])
    (sales,) = [fetch for fetch in result.plan.fetches if fetch.source.name == "sales"]
    assert not sales.stmt.group_by
    assert "Aggregate(by [o.cust_id]" in result.plan.pretty()
    reference = SqliteReference(fixture).query(QUERIES["q12_customer360"])
    assert row_mismatch(result.relation.rows, reference) is None


def test_dropping_the_padded_row_coalesce_is_caught(fixture, monkeypatch):
    reference = SqliteReference(fixture)
    right = FederatedEngine(fixture.catalog()).query(PADDED_COUNT)
    assert "COALESCE(o._p0, 1)" in right.plan.pretty()
    assert row_mismatch(right.relation.rows, reference.query(PADDED_COUNT)) is None

    pre_aggregate = rewrite._pre_aggregate

    def mutated(*args):
        found = pre_aggregate(*args)
        if found is None:
            return None

        def drop_padding(expr):
            padding = isinstance(expr, FuncCall) and expr.name == "COALESCE"
            if padding and expr.args[1] == Literal(1):
                return expr.args[0]
            return None

        saved, plan = found
        calls = [transform(call, drop_padding) for call in plan.aggregates]
        return saved, LogicalAggregate(
            plan.child, plan.group_exprs, plan.group_names, calls, plan.agg_names
        )

    monkeypatch.setattr(rewrite, "_pre_aggregate", mutated)
    wrong = FederatedEngine(fixture.catalog()).query(PADDED_COUNT)
    assert "COALESCE(o._p0, 1)" not in wrong.plan.pretty()
    assert row_mismatch(wrong.relation.rows, reference.query(PADDED_COUNT)) is not None


# -- the same rule at a source ---------------------------------------------------


def test_q10s_source_aggregate_folds_one_row_per_ordered_product():
    """q10's sales fetch groups orders by product before the join: its top
    aggregate folds a row per product with an order, not a row per order."""
    fixture = build_enterprise(BenchConfig(scale=4, seed=42))
    plan = FederatedEngine(fixture.catalog()).planner.plan(QUERIES["q10_product_mix"])
    (fetch,) = plan.fetches
    assert "GROUP BY" in fetch.stmt.text and "Alias(" not in plan.pretty()  # the hub's plan: as before
    physical = fetch.source.engine.physical_plan(fetch.stmt)
    instrument_physical(physical)
    physical.relation()
    orders = fixture.sales.table("orders")
    product = orders.schema.index_of("product_id")
    products = fixture.sales.table("products")
    products = {row[products.schema.index_of("id")] for row in products.rows()}
    ordered = {row[product] for row in orders.rows()} & products
    assert aggregate_input(physical) == len(ordered) < len(list(orders.rows()))


def logical_nodes_built(thunk) -> int:
    """How many logical plan nodes `thunk` constructs (`sys.setprofile`)."""
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code.co_name == "__init__":
            built += isinstance(frame.f_locals.get("self"), LogicalPlan)

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return built


@pytest.mark.parametrize(
    "sql, fires",
    [
        ("SELECT o.status, COUNT(*) AS n, SUM(o.total) AS revenue FROM orders o GROUP BY o.status", False),
        ("SELECT o.id, p.name FROM orders o JOIN products p ON p.id = o.product_id WHERE o.id < 9", False),
        ("SELECT p.category, COUNT(DISTINCT o.status) AS n FROM products p "
         "JOIN orders o ON p.id = o.product_id GROUP BY p.category", False),
        (QUERIES["q10_product_mix"], True),
    ],
    ids=["no_join", "no_aggregate", "not_decomposable", "q10"],
)
def test_where_nothing_moves_the_rule_builds_nothing(fixture, sql, fires):
    engine = fixture.catalog().sources["sales"].engine
    plan = optimize_logical(bind_select(parse(sql), engine.resolver), engine.cost_model)
    assert bool(logical_nodes_built(lambda: eager_aggregate(plan, engine.cost_model))) == fires
    assert (eager_aggregate(plan, engine.cost_model) is plan) != fires
