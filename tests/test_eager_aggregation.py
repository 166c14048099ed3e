"""Eager aggregation: `FederatedPlanner` pre-aggregates a join input by its
join key before a cross-source join.

Counts, not timings: what ships, what reaches the hub aggregate, and which
plans move. The reference for "unchanged" is the planner with the rewrite
step as the identity (the plan it replaced); rows are held against stdlib
`sqlite3` (`tests/sqlite_reference.py`).
"""

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.engine.logical import LogicalAggregate
from repro.engine.physical import HashAggregateOp
from repro.federation import EngineConfig, FederatedEngine, FederatedPlanner
from repro.sql.ast import FuncCall, Literal
from repro.sql.exprutil import transform
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
    """The planner without eager aggregation: the one it replaced."""
    planner = FederatedPlanner(catalog)
    planner._eager = lambda node, subtrees: node
    return planner


def replaced_plan(catalog, sql):
    return replaced_planner(catalog).plan(sql)


def hub_aggregate_input(result) -> int:
    """Rows the hub's topmost hash aggregate folded (an analyzed run)."""
    ops, stack = [], [result.physical]
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
    assert hub_aggregate_input(result) == {1: 20, 4: 48}[scale]


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

    pre_aggregate = FederatedPlanner._pre_aggregate

    def mutated(self, *args):
        found = pre_aggregate(self, *args)
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

    monkeypatch.setattr(FederatedPlanner, "_pre_aggregate", mutated)
    wrong = FederatedEngine(fixture.catalog()).query(PADDED_COUNT)
    assert "COALESCE(o._p0, 1)" not in wrong.plan.pretty()
    assert row_mismatch(wrong.relation.rows, reference.query(PADDED_COUNT)) is not None
