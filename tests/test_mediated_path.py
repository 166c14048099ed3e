"""A name that stands for a query goes through `engine.query()` as text.

The oracle holds `engine.query(text)` over a virtual schema to the path it
replaced - `execute_plan(planner.plan(expand(text)))`, a `LogicalPlan` built
outside the engine - in rows, plan, counters and simulated seconds, and to a
colocated reference (the query spelled over the source tables, run by a local
engine over one database) in rows. Every mediated query the repository ships
is here: `tests/test_mediator_gav.py`, `tests/test_end_to_end_scenario.py`,
`examples/customer_360.py`, `examples/eai_update_saga.py` and E8's access
paths. Then what being on the main path buys: the caches, the strict
pre-flight, the trace, invalidation - and stored rows as a property of the name.
"""

import importlib.util
import io
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import AnalysisError
from repro.bench import BenchConfig, build_enterprise
from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import PlanError, SchemaError
from repro.eai import MessageBroker
from repro.eai.table_events import publish_table_changed
from repro.engine.executor import LocalEngine
from repro.federation import EngineConfig, FederatedEngine, FederationCatalog
from repro.mediator import expand
from repro.netsim import SimClock
from repro.shell import Shell
from repro.sources import RelationalSource
from repro.sql.parser import parse_select
from repro.sql.printer import render_literal
from repro.storage import Database
from repro.trace import Tracer
from repro.views import RefreshPolicy

from tests.federation_fixtures import build_catalog
from tests.test_statement_shape import CONSTANTS, observe

ROOT = pathlib.Path(__file__).parent.parent


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


E08 = _load(ROOT / "benchmarks/bench_e08_eai_vs_eii.py")
ENTERPRISE = build_enterprise(BenchConfig(scale=1, seed=42))

# -- the worlds: a catalog of new source objects each, definitions included ----------

CUSTOMER360_SMALL = (
    "SELECT c.id AS cust_id, c.name AS name, c.city AS city, o.total AS total, "
    "o.status AS status FROM customers c JOIN orders o ON c.id = o.cust_id"
)
CUSTOMER360 = (
    "SELECT c.id AS cust_id, c.name AS name, c.city AS city, "
    "c.segment AS segment, o.total AS order_total, o.status AS order_status, "
    "cr.score AS credit_score "
    "FROM customers c JOIN orders o ON c.id = o.cust_id JOIN credit cr ON cr.cust_id = c.id"
)
EMPLOYEE360 = (
    "SELECT p.emp_id AS emp_id, p.name AS name, p.dept AS dept, "
    "o.office AS office, m.model AS model "
    "FROM people p JOIN offices o ON p.emp_id = o.emp_id JOIN machines m ON p.emp_id = m.emp_id"
)


def small_world():
    catalog = build_catalog()
    catalog.define("customer360", CUSTOMER360_SMALL)
    catalog.define(
        "sf_customers", "SELECT c.id AS id, c.name AS name FROM customers c WHERE c.city = 'SF'"
    )
    catalog.define(
        "big_sf_orders",
        "SELECT v.cust_id AS cust_id, v.total AS total FROM customer360 v "
        "WHERE v.city = 'SF' AND v.total > 50",
    )
    return catalog


def enterprise_world():
    catalog = ENTERPRISE.catalog()
    catalog.define("customer360", CUSTOMER360)
    # nested, computed, `*`, aggregated: what a constant's read is followed through
    catalog.define("big_orders", "SELECT v.cust_id AS cust_id, v.order_total AS total "
                   "FROM customer360 v WHERE v.order_total > 500")
    catalog.define("shifted", "SELECT c.id + 0 AS k, c.name AS name FROM customers c")
    catalog.define("all_customers", "SELECT * FROM customers c")
    catalog.define("city_revenue", "SELECT c.city AS city, SUM(o.total) AS revenue "
                   "FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.city")
    return catalog


def scenario_world():
    catalog = ENTERPRISE.catalog(include_credit=False, include_docs=False)
    catalog.define(
        "customer360",
        "SELECT c.id AS cust_id, c.name AS name, c.city AS city, o.total AS total "
        "FROM customers c JOIN orders o ON c.id = o.cust_id",
    )
    return catalog


def employee_world():
    catalog = FederationCatalog()
    for name, db in zip(("hr", "facilities", "it"), E08.build_enterprise_dbs()):
        catalog.register_source(RelationalSource(name, db))
    catalog.define("employee360", EMPLOYEE360)
    return catalog


EMPLOYEES = "people p JOIN offices o ON p.emp_id = o.emp_id JOIN machines m ON p.emp_id = m.emp_id"
EMPLOYEE_COLUMNS = "p.emp_id, p.name, p.dept, o.office, m.model"

#: ``(world, mediated text, the same query spelled over the source tables)``
QUERIES = [
    # tests/test_mediator_gav.py
    (small_world, "SELECT name FROM sf_customers", "SELECT name FROM customers WHERE city = 'SF'"),
    (small_world, "SELECT v.name, v.total FROM customer360 v WHERE v.total > 130",
     "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id WHERE o.total > 130"),
    (small_world, "SELECT cust_id, total FROM big_sf_orders",  # nested definitions
     "SELECT c.id, o.total FROM customers c JOIN orders o ON c.id = o.cust_id "
     "WHERE c.city = 'SF' AND o.total > 50"),
    (small_world, "SELECT v.name FROM customer360 v WHERE v.city = 'NY'",
     "SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.city = 'NY'"),
    (small_world,  # a definition mixed with base tables
     "SELECT s.name, r.region FROM sf_customers s "
     "JOIN customers c ON s.id = c.id JOIN regions r ON c.city = r.city",
     "SELECT s.name, r.region FROM customers s JOIN customers c ON s.id = c.id "
     "JOIN regions r ON c.city = r.city WHERE s.city = 'SF'"),
    (small_world, "SELECT v.city, COUNT(*) AS n FROM customer360 v GROUP BY v.city",
     "SELECT c.city, COUNT(*) AS n FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.city"),
    # alias capture: the outer aliases are the ones the definition uses inside
    (small_world, "SELECT c.name, o.id FROM customer360 c JOIN orders o ON o.cust_id = c.cust_id "
     "WHERE o.status = 'open' AND c.total > 100",
     "SELECT c.name, o.id FROM customers c JOIN orders x ON c.id = x.cust_id "
     "JOIN orders o ON o.cust_id = c.id WHERE o.status = 'open' AND x.total > 100"),
    (small_world, "SELECT o.name, c.total FROM sf_customers o JOIN big_sf_orders c ON c.cust_id = o.id",
     "SELECT o.name, x.total FROM customers o JOIN customers c ON c.id = o.id "
     "JOIN orders x ON c.id = x.cust_id WHERE o.city = 'SF' AND c.city = 'SF' AND x.total > 50"),
    # tests/test_end_to_end_scenario.py
    (scenario_world, "SELECT v.city, SUM(v.total) AS exposure FROM customer360 v GROUP BY v.city",
     "SELECT c.city, SUM(o.total) AS exposure FROM customers c JOIN orders o ON c.id = o.cust_id "
     "GROUP BY c.city"),
    (scenario_world, "SELECT v.name, v.total FROM customer360 v WHERE v.total > 4000",
     "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id WHERE o.total > 4000"),
    # examples/customer_360.py
    (enterprise_world,
     "SELECT v.name, v.city, v.order_total, v.order_status, v.credit_score "
     "FROM customer360 v WHERE v.cust_id = 7",
     "SELECT c.name, c.city, o.total, o.status, cr.score FROM customers c "
     "JOIN orders o ON c.id = o.cust_id JOIN credit cr ON cr.cust_id = c.id WHERE c.id = 7"),
    (enterprise_world,
     "SELECT v.name, SUM(v.order_total) AS revenue, MAX(v.credit_score) AS score "
     "FROM customer360 v WHERE v.segment = 'enterprise' "
     "GROUP BY v.name ORDER BY revenue DESC LIMIT 5",
     "SELECT c.name, SUM(o.total) AS revenue, MAX(cr.score) AS score FROM customers c "
     "JOIN orders o ON c.id = o.cust_id JOIN credit cr ON cr.cust_id = c.id "
     "WHERE c.segment = 'enterprise' GROUP BY c.name ORDER BY revenue DESC LIMIT 5"),
    # examples/eai_update_saga.py
    (employee_world, "SELECT * FROM employee360 e WHERE e.emp_id = 2",
     f"SELECT {EMPLOYEE_COLUMNS} FROM {EMPLOYEES} WHERE p.emp_id = 2"),
    (employee_world, "SELECT e.name, e.office FROM employee360 e WHERE e.dept = 'eng'",
     f"SELECT p.name, o.office FROM {EMPLOYEES} WHERE p.dept = 'eng'"),
    (employee_world, "SELECT * FROM employee360 e WHERE e.emp_id = 10",
     f"SELECT {EMPLOYEE_COLUMNS} FROM {EMPLOYEES} WHERE p.emp_id = 10"),
] + [
    # benchmarks/bench_e08_eai_vs_eii.py
    (employee_world, sql, f"SELECT {EMPLOYEE_COLUMNS} FROM {EMPLOYEES} WHERE {where}")
    for sql, where in zip(
        E08.ACCESS_PATHS.values(),
        ("p.emp_id = 3", "p.dept = 'eng'", "o.office = 'B-2'", "m.model = 'thinkpad'"),
    )
]


def colocated(catalog) -> LocalEngine:
    """Every source table of `catalog`, copied into one local database."""
    db = Database("colocated")
    for name in catalog.table_names():
        entry = catalog.entry(name)
        backing = getattr(entry.source, "_backing", None)  # a keyed service: no scan
        rows = (
            backing.rows()
            if backing is not None
            else entry.source.execute_select(parse_select(f"SELECT * FROM {entry.local_name}")).rows
        )
        db.create_table(name, [(c.name, c.dtype) for c in entry.schema]).insert_many(rows)
    return LocalEngine(db)


def rounded(rows) -> list:
    """Sorted, sums rounded: a local engine adds floats in another order."""
    return sorted(
        (tuple(round(v, 4) if isinstance(v, float) else v for v in row) for row in rows), key=repr
    )


def account(result) -> tuple:
    return (
        result.relation.rows,
        result.plan.pretty(),
        result.metrics.summary(),
        result.elapsed_seconds,
    )


# -- the oracle ------------------------------------------------------------------------


class TestTextEqualsExpandedPlan:
    @pytest.mark.parametrize("world, text, direct", QUERIES, ids=[q[1][:60] for q in QUERIES])
    def test_every_shipped_mediated_query(self, world, text, direct):
        engine = FederatedEngine(world())
        reference = FederatedEngine(world())
        expanded = expand(reference.catalog, text)
        assert account(engine.query(text)) == account(
            reference.execute_plan(reference.planner.plan(expanded))
        )
        rows = rounded(engine.query(text).relation.rows)
        assert rows == rounded(colocated(engine.catalog).query(direct).rows)
        assert rows or "emp_id = 10" in text  # nobody hired yet: the one empty answer

    def test_a_plan_is_not_a_query(self):
        engine = FederatedEngine(small_world())
        with pytest.raises(PlanError, match="SELECT"):
            engine.query(expand(engine.catalog, "SELECT name FROM sf_customers"))
        with pytest.raises(PlanError, match="SELECT"):
            engine.prepare(expand(engine.catalog, "SELECT name FROM sf_customers"))


LOOKUPS = [
    "SELECT v.name, v.city, v.order_total, v.order_status, v.credit_score "
    "FROM customer360 v WHERE v.cust_id = {id}",
    "SELECT name, order_total FROM customer360 WHERE cust_id = {id} AND order_status <> {b}",
    "SELECT cust_id, total FROM big_orders WHERE cust_id = {id}",  # nested
    "SELECT name FROM shifted WHERE k = {id}",  # computed: the read is the value
    "SELECT a.name, a.city FROM all_customers a WHERE a.id = {id}",  # through `*`
    "SELECT r.revenue FROM city_revenue r WHERE r.city = {b}",  # under an aggregate
    # a definition mixed with a base table, the definition's own aliases outside it
    "SELECT c.name, o.id FROM customer360 c JOIN tickets o ON o.cust_id = c.cust_id "
    "WHERE c.cust_id = {id}",
    "SELECT c.name, t.subject FROM customers c JOIN big_orders v ON v.cust_id = c.id "
    "LEFT JOIN tickets t ON t.cust_id = c.id WHERE c.id = {id} AND c.segment = {b}",
]


def mediated_engine():
    return repro.connect(enterprise_world(), EngineConfig(clock=SimClock()))


class TestShapeWarmEqualsFresh:
    """`tests/test_statement_shape.py`'s rule, through definitions: whatever
    constants an engine saw in a shape before, it answers the next ones as an
    engine that never saw the shape - rows, plan, counters, simulated seconds."""

    @settings(max_examples=40, deadline=None)
    @example(LOOKUPS[0], [(7, 0), (8, 0), (10**6, 0), (0, 0), (7.0, 0), (7, 0)])
    @example(LOOKUPS[1], [(7, "open"), (8, "closed"), (8, "nope"), (9, "")])
    @example(LOOKUPS[3], [(7, 0), (8, 0), (7, 0)])
    @example(LOOKUPS[4], [(7, 0), (-1, 0), (8, 0)])
    @example(LOOKUPS[5], [(0, "AUS"), (0, "nowhere"), (0, "SEA")])
    @given(
        st.sampled_from(LOOKUPS),
        st.lists(st.tuples(CONSTANTS, CONSTANTS), min_size=2, max_size=4),
    )
    def test_every_binding_of_a_mediated_text(self, template, bindings):
        warm = mediated_engine()
        for a, b in bindings:
            text = template.format(id=render_literal(a), b=render_literal(b))
            assert observe(warm, text) == observe(mediated_engine(), text)

    def test_a_lookup_through_a_renamed_column_shares_its_plan(self):
        engine = mediated_engine()
        planned = []
        inner = engine.planner.plan
        engine.planner.plan = lambda query: planned.append(query) or inner(query)
        for cust_id in (7, 8, 9, 10):
            result = engine.query(LOOKUPS[0].format(id=cust_id))
        assert len(planned) == 1 and result.metrics.plan_cache_hits == 1
        # the read is the one planning makes: the statistics under the alias
        stats = engine.catalog.table_stats("customers").column("id")
        assert result.plan.reads == (stats.eq_selectivity(10),)
        assert engine.catalog.base_column("big_orders", "cust_id") == ("customers", "id")

    def test_where_the_column_is_not_plain_no_two_constants_share(self):
        engine = mediated_engine()
        for template in (LOOKUPS[3], LOOKUPS[4]):
            results = [engine.query(template.format(id=i)) for i in (7, 8, 7)]
            assert [r.metrics.plan_cache_hits for r in results] == [0, 0, 1]
            assert results[1].plan.reads == (8,)


# -- what the main path gives a mediated text ------------------------------------------

LOOKUP_7 = LOOKUPS[0].format(id=7)


class TestOnTheMainPath:
    def test_a_repeated_text_hits_the_plan_cache_and_its_trace_has_its_sql(self):
        engine = repro.connect(enterprise_world(), tracer=Tracer())
        first, second = engine.query(LOOKUP_7), engine.query(LOOKUP_7)
        assert (first.metrics.plan_cache_hits, second.metrics.plan_cache_hits) == (0, 1)
        assert second.trace.root.attrs["sql"] == str(parse_select(LOOKUP_7))
        assert second.relation.rows == first.relation.rows

    def test_a_repeated_text_hits_the_result_cache_until_a_source_write(self):
        broker = MessageBroker()
        engine = repro.connect(enterprise_world(), cache=CacheHierarchy(CacheConfig()), views=True)
        engine.attach_invalidation(broker)
        engine.views.define_materialized(
            "dash", "SELECT v.city, SUM(v.order_total) AS exposure FROM customer360 v GROUP BY v.city"
        )
        assert engine.views.view("dash").tables == {"customer360", "customers", "orders", "credit"}
        engine.query(LOOKUP_7)
        assert engine.query(LOOKUP_7).from_cache
        publish_table_changed(broker, "orders", 1)
        assert not engine.query(LOOKUP_7).from_cache
        assert engine.views.view("dash").dirty

    def test_strict_mode_rejects_a_bad_column_before_any_byte(self):
        engine = repro.connect(enterprise_world(), validate=True)
        with pytest.raises(AnalysisError) as caught:
            engine.query("SELECT v.nope FROM customer360 v")
        assert caught.value.metrics.summary()["wire_bytes"] == 0
        assert caught.value.metrics.total_source_queries() == 0
        assert engine.query(LOOKUP_7).relation.rows  # and verifies what it plans

    def test_redefined_or_dropped_a_name_is_never_answered_from_the_old_definition(self):
        catalog = small_world()
        engine = repro.connect(catalog, cache=CacheHierarchy(CacheConfig()), views=True)
        sql = "SELECT name FROM sf_customers"
        names = lambda: sorted(engine.query(sql).relation.column_values("name"))  # noqa: E731
        assert names() == ["cust1", "cust3", "cust5", "cust7"] == names()
        catalog.define("sf_customers", "SELECT c.name AS name FROM customers c WHERE c.city = 'NY'")
        assert names() == ["cust2", "cust4", "cust6", "cust8"]  # no old plan, no old result
        catalog.drop("sf_customers")
        engine.views.define_materialized("sf_customers", "SELECT name FROM customers WHERE id < 3")
        assert names() == ["cust1", "cust2"] and engine.query(sql).from_cache
        catalog.drop("sf_customers")
        with pytest.raises(SchemaError):
            engine.query(sql)  # neither staged rows nor a cached result outlive the name

    def test_a_view_over_a_redefined_name_goes_dirty(self):
        catalog = small_world()
        engine = repro.connect(catalog, views=True)
        engine.views.define_materialized("sf_names", "SELECT s.name FROM sf_customers s")
        catalog.define("sf_customers", "SELECT r.city AS name FROM regions r")
        view = engine.views.view("sf_names")
        assert view.dirty and view.tables == {"sf_customers", "regions"}
        assert sorted(engine.views.read("sf_names").rows) == [("NY",), ("SF",)]

    def test_an_engine_without_definitions_builds_no_key(self, monkeypatch):
        engine = FederatedEngine(build_catalog())
        monkeypatch.setattr(FederationCatalog, "stamp", None)  # calling it would raise
        monkeypatch.setattr(FederationCatalog, "unfold", None)
        assert engine.query("SELECT name FROM customers WHERE id = 1").relation.rows


class TestRowsAreAPropertyOfTheName:
    SQL = "SELECT d.city, d.n FROM city_counts d WHERE d.n > 0"

    def engine(self, policy=RefreshPolicy.MANUAL):
        engine = repro.connect(small_world(), views=True)
        engine.views.define_materialized(
            "city_counts", "SELECT v.city AS city, COUNT(*) AS n FROM customer360 v GROUP BY v.city",
            policy,
        )
        return engine

    def test_alone_in_from_a_fresh_view_answers_from_its_rows(self):
        engine = self.engine()
        served = engine.query(self.SQL)
        assert served.view.view == "city_counts" and served.view.kind == "named"
        assert served.view.fresh and served.metrics.total_source_queries() == 0
        live = engine.query(self.SQL, use_views=False)
        assert live.view is None and live.metrics.total_source_queries() > 0
        assert sorted(served.relation.rows) == sorted(live.relation.rows) == [("NY", 20), ("SF", 20)]

    def test_joined_with_anything_it_unfolds_live(self):
        engine = self.engine()
        joined = engine.query(
            "SELECT d.city, r.region FROM city_counts d JOIN regions r ON r.city = d.city"
        )
        assert joined.view is None and joined.metrics.total_source_queries() > 0
        assert joined.metrics.view_fallbacks == 0
        assert sorted(joined.relation.rows) == [("NY", "east"), ("SF", "west")]

    def test_dirty_under_manual_it_federates_and_counts_a_fallback(self):
        engine = self.engine()
        engine.views.on_table_changed("orders")
        result = engine.query(self.SQL)
        assert result.view is None and result.metrics.total_source_queries() > 0
        assert result.metrics.view_fallbacks == 1
        assert sorted(result.relation.rows) == [("NY", 20), ("SF", 20)]

    def test_dirty_under_interval_it_refreshes_and_serves(self):
        engine = self.engine(RefreshPolicy.INTERVAL)
        engine.views.on_table_changed("orders")
        result = engine.query(self.SQL)
        assert result.view.fresh and engine.views.view("city_counts").refresh_count == 2

    def test_a_view_the_matcher_cannot_use_is_still_served_by_name(self):
        engine = repro.connect(small_world(), views=True)
        engine.views.define_materialized("cities", "SELECT DISTINCT city FROM customers")
        assert engine.views.view("cities").compiled is None
        served = engine.query("SELECT city FROM cities ORDER BY city")
        assert served.view.kind == "named" and served.relation.rows == [("NY",), ("SF",)]


class TestShell:
    def test_tables_lists_definitions_beside_source_tables(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out, telemetry=False)
        catalog = shell.engine.catalog
        catalog.define("big_spenders", "select c.name from customers c where c.id < 3")
        shell.engine.views.define_materialized("cities", "SELECT DISTINCT city FROM customers")
        shell.handle("\\tables")
        fresh = out.getvalue()
        assert "  customers      @crm" in fresh
        assert "  big_spenders   = SELECT c.name FROM customers AS c WHERE (c.id < 3)\n" in fresh
        assert (
            "  cities         = SELECT DISTINCT city FROM customers "
            "[materialized, fresh; DISTINCT views are not matchable]\n"
        ) in fresh
        shell.engine.views.on_table_changed("customers")
        shell.handle("\\tables")
        assert "[materialized, dirty; " in out.getvalue()[len(fresh):]
        shell.handle("SELECT name FROM big_spenders")
        assert "-- 2 rows; 1 component queries" in out.getvalue()
