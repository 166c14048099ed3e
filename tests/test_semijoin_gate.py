"""The bind-join gate: ship keys only where they cut the probed side.

`FederatedPlanner` turns a join of two remote sides into a bind join (the
left's join keys shipped as `IN` lists to the right's source) when, under
`semijoin="auto"`, the left's distinct keys are at most `max_bind_keys` and
fewer than the right key's distinct values by more than 1.5x. A LEFT join is
driven from its preserved side and never mirrored. The gate picks a plan,
never an answer: rows under `auto` equal those under `off` and `force`, and
those of one database holding every table.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.engine import LocalEngine
from repro.engine.logical import LogicalJoin
from repro.federation import EngineConfig, FederatedEngine
from repro.federation.nodes import LogicalBindJoin, LogicalFetch
from repro.netsim import FaultInjector, Outage, SimClock
from repro.sql.ast import BinaryOp, ColumnRef
from repro.storage import Database

FIXTURE = build_enterprise(BenchConfig(scale=1, seed=42))


def colocated() -> LocalEngine:
    """Every table of the four relational sources in one local database."""
    db = Database("colocated")
    for source_db in (FIXTURE.crm, FIXTURE.sales, FIXTURE.support, FIXTURE.finance):
        for table in source_db.tables():
            db.create_table(table.name, [(c.name, c.dtype) for c in table.schema]).insert_many(
                table.rows()
            )
    return LocalEngine(db)


REFERENCE = colocated()

# -- the oracle: auto == off == force == colocated --------------------------------

PARTNERS = {"orders": "o", "tickets": "t", "invoices": "i"}
FILTERS = {
    "customers": ["c.segment = 'enterprise'", "c.city IN ('SF', 'NY')", "c.id < 40"],
    "orders": ["o.total > 2500", "o.status = 'open'", "o.cust_id = 3", "o.id > 4 * c.id"],
    "tickets": ["t.severity >= 4", "t.state = 'open'", "t.id > c.id"],
    "invoices": ["i.paid = FALSE", "i.amount > 4000", "i.id < 2 * c.id"],
}


@st.composite
def joins(draw):
    """A 2- or 3-way join of customers (crm) with tables of other sources,
    each INNER or LEFT, either side first, filters on either side or across
    both (a bind join's residual): an INNER partner's and the customers' in
    WHERE, a LEFT partner's in its ON."""
    partners = draw(st.lists(st.sampled_from(sorted(PARTNERS)), min_size=1, max_size=2, unique=True))
    columns, where = ["c.id"], []
    text = "customers c"
    if draw(st.booleans()):
        where.append(draw(st.sampled_from(FILTERS["customers"])))
    for table in partners:
        alias = PARTNERS[table]
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        on = f"{alias}.cust_id = c.id"
        if draw(st.booleans()):
            conjunct = draw(st.sampled_from(FILTERS[table]))
            if kind == "JOIN":
                where.append(conjunct)
            else:
                on += f" AND {conjunct}"
        if text == "customers c" and draw(st.booleans()):
            text = f"{table} {alias} {kind} {text} ON {on}"  # the partner comes first
        else:
            text += f" {kind} {table} {alias} ON {on}"
        columns.append(f"{alias}.id")
    sql = f"SELECT {', '.join(columns)} FROM {text}"
    return sql + (" WHERE " + " AND ".join(where) if where else "")


def engine(semijoin: str = "auto", **config):
    return repro.connect(
        FIXTURE.catalog(include_credit=False, include_docs=False),
        EngineConfig(clock=SimClock(), semijoin=semijoin, **config),
    )


ENGINES = {mode: engine(mode) for mode in ("auto", "off", "force")}


@given(sql=joins())
@example(sql="SELECT c.id, t.id FROM customers c LEFT JOIN tickets t ON t.cust_id = c.id "
         "WHERE c.segment = 'enterprise'")
@example(sql="SELECT c.id, o.id FROM customers c JOIN orders o ON o.cust_id = c.id")
@example(sql="SELECT c.id, o.id, i.id FROM orders o JOIN customers c ON o.cust_id = c.id "
         "LEFT JOIN invoices i ON i.cust_id = c.id AND i.paid = FALSE WHERE o.cust_id = 3")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_gate_picks_a_plan_never_an_answer(sql):
    reference = REFERENCE.query(sql).sorted().rows
    for mode, federated in ENGINES.items():
        assert federated.query(sql).relation.sorted().rows == reference, (mode, sql)


def test_the_examples_exercise_both_outcomes():
    """Under `auto`, the oracle's first example binds its LEFT join; its
    second fetches plainly; `force` binds both."""
    left = "SELECT c.id, t.id FROM customers c LEFT JOIN tickets t ON t.cust_id = c.id WHERE c.segment = 'enterprise'"
    inner = "SELECT c.id, o.id FROM customers c JOIN orders o ON o.cust_id = c.id"
    [bound] = ENGINES["auto"].planner.plan(left).bind_joins
    assert bound.kind == "LEFT" and bound.source.name == "support"
    assert ENGINES["auto"].planner.plan(inner).bind_joins == ()
    assert ENGINES["off"].planner.plan(left).bind_joins == ()
    assert all(ENGINES["force"].planner.plan(sql).bind_joins for sql in (left, inner))


def test_a_left_join_is_never_mirrored():
    """Even when its preserved side is the larger one, the probe is driven
    from it: the null-supplying side is the one probed."""
    sql = "SELECT t.id, c.id FROM tickets t LEFT JOIN customers c ON c.id = t.cust_id"
    [bound] = ENGINES["force"].planner.plan(sql).bind_joins
    assert (bound.kind, bound.source.name, str(bound.left_key)) == ("LEFT", "crm", "t.cust_id")
    assert ENGINES["force"].query(sql).relation.sorted().rows == REFERENCE.query(sql).sorted().rows


# -- the benchmark's queries, pinned ----------------------------------------------


def explain(name: str) -> str:
    pinned = repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock()))
    return pinned.explain(QUERIES[name])


def test_orders_is_fetched_plainly_where_every_customer_id_would_be_shipped():
    """q4, q5 and q9 join every (or, for q4, every big-spending) order to its
    customer: the customer ids are as many as `orders.cust_id` takes, so
    shipping them cuts nothing, and both sides are fetched once."""
    for name in ("q4_crm_sales_join", "q5_city_revenue", "q9_segment_analytics"):
        text = explain(name)
        assert "BindJoin" not in text, text
        assert "Fetch[sales](SELECT o.cust_id" in text and "Fetch[crm](SELECT c.id" in text


def test_few_keys_against_a_wide_domain_are_bound():
    """q7's open severe tickets probe customers by id; q12's ten-odd
    enterprise customers probe `tickets` through their LEFT join."""
    assert (
        "BindJoin[crm](t.cust_id -> c.id: SELECT c.id, c.name FROM customers AS c)\n"
        "    Fetch[support](SELECT t.cust_id, t.severity, t.state, t.subject FROM tickets AS t"
    ) in explain("q7_support_risk")
    q12 = explain("q12_customer360")
    assert "BindJoin[support](c.id -> t.cust_id: SELECT t.id, t.cust_id FROM tickets AS t)" in q12
    assert "Fetch[support]" not in q12


# -- estimates above a bind join ----------------------------------------------------


def test_a_join_above_a_bind_join_is_estimated_with_the_real_ndvs():
    planner = ENGINES["force"].planner
    plan = planner.plan("SELECT c.id, t.id FROM customers c JOIN tickets t ON t.cust_id = c.id")
    [bound] = plan.bind_joins
    invoices = planner.plan("SELECT i.cust_id FROM invoices i").fetches[0]
    model = planner.cost_model
    estimate = model.estimate(bound)
    left, probed = model.estimate(bound.left), model.estimate(LogicalFetch(
        bound.template, bound.source, bound.fetch_schema, bound.est_rows, bound.est))
    for column, side in ((ColumnRef("id", "c"), left), (ColumnRef("cust_id", "t"), probed)):
        assert estimate.stat_for(column) is side.stat_for(column) is not None
    key, other = ColumnRef("id", "c"), ColumnRef("cust_id", "i")
    above = LogicalJoin(bound, invoices, "INNER", BinaryOp("=", key, other))
    ndv = max(left.stat_for(key).distinct, model.estimate(invoices).stat_for(other).distinct)
    assert ndv > 10  # the default the estimate fell back to without them
    assert model.estimate(above).rows == estimate.rows * model.estimate(invoices).rows / ndv


# -- partial results: a failed probe pads, it never drops ------------------------


def test_a_failed_probe_of_a_left_bind_join_pads_its_rows():
    sql = (
        "SELECT c.id, c.name, t.id FROM customers c LEFT JOIN tickets t ON t.cust_id = c.id "
        "WHERE c.segment = 'enterprise'"
    )
    clock = SimClock()
    injector = FaultInjector(seed=1, clock=clock)
    injector.script("support", Outage())
    catalog = FIXTURE.catalog(include_credit=False, include_docs=False, wrap=injector.wrap)
    faulty = repro.connect(catalog, EngineConfig(clock=clock, partial_results=True))
    [bound] = faulty.planner.plan(sql).bind_joins
    assert isinstance(bound, LogicalBindJoin) and bound.kind == "LEFT"
    result = faulty.query(sql)
    customers = REFERENCE.query(
        "SELECT c.id, c.name FROM customers c WHERE c.segment = 'enterprise'"
    ).sorted().rows
    assert result.relation.sorted().rows == [row + (None,) for row in customers]
    assert result.is_partial and result.completeness.skipped_sources() == ["support"]

