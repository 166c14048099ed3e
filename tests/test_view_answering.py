"""Answering queries using views: matching, serving, advisor, config shim.

The differential oracle is the load-bearing test: a view-answering engine
and a plain engine run the same interleaving of queries, writes, refreshes,
re-definitions and clock ticks over identical catalogs, and every FRESH
answer (view-served or not) must be row-identical to the plain engine's.
Stale serves are allowed only under an explicit ``serve_stale`` policy and
must always be annotated. `TestDerivedOnce` below it counts how often each
fact about a view is derived.
"""

import warnings
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
import repro.views.manager as view_manager
from repro.advisor import ViewSelector
from repro.bench import BenchConfig, build_enterprise
from repro.common.errors import PlanError
from repro.common.relation import Relation
from repro.eai import MessageBroker
from repro.engine.executor import LocalEngine
from repro.federation import EngineConfig, FederatedEngine
from repro.federation.report import SECTION_ORDER
from repro.netsim import SimClock
from repro.sql.parser import parse
from repro.views import (
    ChangeNotifier,
    RefreshPolicy,
    ServePolicy,
    UnsupportedShape,
    ViewManager,
    compile_shape,
    compile_view,
    match_and_rewrite,
)

from tests.federation_fixtures import build_catalog, build_engine

ORDERS_BY_STATUS_CUST = (
    "SELECT status, cust_id, SUM(total) AS total_sum, COUNT(*) AS n "
    "FROM orders GROUP BY status, cust_id"
)
ORDERS_BY_STATUS = (
    "SELECT status, SUM(total) AS revenue, COUNT(*) AS n "
    "FROM orders GROUP BY status"
)
CUSTOMER_CITIES = "SELECT id, name, city FROM customers"


def view_engine(view_sql=ORDERS_BY_STATUS_CUST, **kwargs):
    engine = build_engine(views=True, **kwargs)
    engine.views.define_materialized("mv", view_sql)
    return engine


def rows(result):
    return result.relation.sorted().rows


# -- shape matching (unit level) --------------------------------------------------


class TestMatching:
    def compiled(self, sql, name="v"):
        catalog = build_catalog()
        return compile_view(name, sql, parse(sql), catalog), catalog

    def match(self, query_sql, view_sql):
        view, catalog = self.compiled(view_sql)
        shape = compile_shape(parse(query_sql), catalog)
        return match_and_rewrite(shape, view, catalog)

    def test_exact_aggregate_match(self):
        match = self.match(ORDERS_BY_STATUS, ORDERS_BY_STATUS)
        assert match is not None
        _, kind = match
        assert kind == "exact"

    def test_rollup_match_reaggregates(self):
        match = self.match(ORDERS_BY_STATUS, ORDERS_BY_STATUS_CUST)
        assert match is not None
        rewritten, kind = match
        assert kind == "rollup"
        text = str(rewritten)
        assert "SUM(total_sum)" in text  # SUM rolls up as SUM of partials
        assert "SUM(n)" in text  # COUNT rolls up as SUM of counts

    def test_avg_derived_from_sum_and_count(self):
        match = self.match(
            "SELECT status, AVG(total) AS avg_total FROM orders GROUP BY status",
            ORDERS_BY_STATUS_CUST,
        )
        assert match is not None
        rewritten, kind = match
        assert kind == "rollup"
        assert "SUM(total_sum) / SUM(n)" in str(rewritten)

    def test_spj_with_residual_predicate(self):
        match = self.match(
            "SELECT name FROM customers WHERE city = 'SF'", CUSTOMER_CITIES
        )
        assert match is not None
        rewritten, kind = match
        assert kind == "spj"
        assert "city" in str(rewritten)  # compensation kept

    def test_join_shape_matches_across_syntax(self):
        view_sql = (
            "SELECT c.name, o.total FROM customers c "
            "JOIN orders o ON c.id = o.cust_id"
        )
        match = self.match(
            "SELECT customers.name FROM customers, orders "
            "WHERE customers.id = orders.cust_id",
            view_sql,
        )
        assert match is not None

    def test_no_match_on_missing_table(self):
        assert self.match("SELECT city FROM customers", ORDERS_BY_STATUS) is None

    def test_no_match_when_view_filters_more(self):
        assert (
            self.match(
                "SELECT name FROM customers",
                "SELECT name FROM customers WHERE city = 'SF'",
            )
            is None
        )

    def test_no_match_when_group_not_subset(self):
        assert (
            self.match(
                "SELECT cust_id, status, COUNT(*) AS n FROM orders "
                "GROUP BY cust_id, status",
                ORDERS_BY_STATUS,
            )
            is None
        )

    def test_no_match_when_column_not_stored(self):
        assert (
            self.match("SELECT id, city FROM customers", "SELECT name FROM customers")
            is None
        )

    def test_view_compile_rejects_limit(self):
        sql = "SELECT id FROM customers LIMIT 3"
        with pytest.raises(UnsupportedShape):
            compile_view("v", sql, parse(sql), build_catalog())


# -- serving through the engine ---------------------------------------------------


class TestServing:
    def test_fresh_view_answers_identically(self):
        plain = build_engine()
        engine = view_engine()
        result = engine.query(ORDERS_BY_STATUS)
        assert result.view is not None
        assert result.view.view == "mv"
        assert result.view.kind == "rollup"
        assert result.view.fresh
        assert result.metrics.view_hits == 1
        assert sum(result.metrics.source_queries.values()) == 0  # zero network
        assert rows(result) == rows(plain.query(ORDERS_BY_STATUS))

    def test_dirty_view_falls_back_to_federation(self):
        engine = view_engine()
        engine.views.mark_dirty("mv")
        orders = engine.catalog.sources["sales"].db.table("orders")
        orders.insert((999, 1, 2.5, "open"))
        result = engine.query(ORDERS_BY_STATUS)
        assert result.view is None
        assert result.metrics.view_fallbacks == 1
        truth = rows(engine.query(ORDERS_BY_STATUS, use_views=False))
        assert rows(result) == truth
        # the write really changed the answer (the fallback was load-bearing)
        assert truth != rows(view_engine().query(ORDERS_BY_STATUS))

    def test_stale_serves_are_always_annotated(self):
        clock = SimClock()
        engine = view_engine(
            clock=clock,
            view_policy=ServePolicy(max_staleness_s=5.0, serve_stale=True),
        )
        snapshot = rows(engine.query(ORDERS_BY_STATUS))
        clock.advance(60.0)
        stale = engine.query(ORDERS_BY_STATUS)
        assert stale.view is not None
        assert not stale.view.fresh  # the annotation
        assert stale.view.staleness_s == pytest.approx(60.0)
        assert stale.metrics.view_stale_serves == 1
        assert "STALE" in stale.view.describe()
        assert rows(stale) == snapshot

    def test_staleness_bound_without_serve_stale_falls_back(self):
        clock = SimClock()
        engine = view_engine(
            clock=clock, view_policy=ServePolicy(max_staleness_s=5.0)
        )
        clock.advance(60.0)
        result = engine.query(ORDERS_BY_STATUS)
        assert result.view is None
        assert result.metrics.view_fallbacks == 1

    def test_on_query_policy_serves_live_data(self):
        engine = build_engine(views=True)
        engine.views.define_materialized(
            "mv", ORDERS_BY_STATUS_CUST, policy=RefreshPolicy.ON_QUERY
        )
        orders = engine.catalog.sources["sales"].db.table("orders")
        orders.insert((999, 1, 2.5, "open"))
        engine.views.mark_dirty("mv")
        result = engine.query(ORDERS_BY_STATUS)
        assert result.view is not None and result.view.fresh
        truth = rows(engine.query(ORDERS_BY_STATUS, use_views=False))
        assert rows(result) == truth
        assert truth != rows(view_engine().query(ORDERS_BY_STATUS))

    def test_redefined_view_answers_from_its_own_rows(self):
        """Regression: on a SimClock a re-created view repeats the dropped
        one's (refreshed_at, refresh_count), and the rows staged under the
        *name* outlived the drop — `total > 10` got the `total > 1000` counts."""
        fixture = build_enterprise(BenchConfig(scale=1, seed=42))
        engine = FederatedEngine(
            fixture.catalog(), EngineConfig(views=True, clock=SimClock())
        )
        by_status = (
            "SELECT status, COUNT(*) AS n FROM orders WHERE total > {} GROUP BY status"
        )
        engine.views.define_materialized("mv", by_status.format(1000))
        assert rows(engine.query(by_status.format(1000)))[0] == ("closed", 186)
        engine.views.drop("mv")
        engine.views.define_materialized("mv", by_status.format(10))
        served = engine.query(by_status.format(10))
        assert served.view is not None and served.view.fresh
        assert rows(served) == [
            ("closed", 225), ("open", 269), ("returned", 252), ("shipped", 254)
        ]
        assert rows(served) == rows(engine.query(by_status.format(10), use_views=False))

    def test_broker_events_invalidate_through_the_engine(self):
        engine = view_engine()
        broker = MessageBroker()
        engine.attach_invalidation(broker)
        notifier = ChangeNotifier(broker)
        orders = engine.catalog.sources["sales"].db.table("orders")
        notifier.watch("orders", orders)
        orders.insert((999, 1, 2.5, "open"))
        notifier.poll()
        assert engine.views.view("mv").dirty
        result = engine.query(ORDERS_BY_STATUS)  # falls back, fresh rows
        assert result.view is None
        assert rows(result) == rows(engine.query(ORDERS_BY_STATUS, use_views=False))


# -- the EngineConfig facade and deprecation shim ---------------------------------


class TestEngineConfigShim:
    def test_unknown_kwarg_is_a_typeerror(self):
        with pytest.raises(TypeError, match="parallel_wrokers"):
            FederatedEngine(build_catalog(), parallel_wrokers=2)

    def test_connect_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = repro.connect(
                build_catalog(), EngineConfig(views=True), parallel_workers=2
            )
        assert engine.config.parallel_workers == 2
        assert engine.views is not None

    def test_config_object_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FederatedEngine(build_catalog(), EngineConfig())

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="no_such_knob"):
            EngineConfig().with_overrides(no_such_knob=1)

    def test_auto_materialize_implies_views(self):
        engine = build_engine(auto_materialize=True)
        assert engine.views is not None
        assert isinstance(engine.view_selector, ViewSelector)

    def test_auto_materialize_rejects_garbage(self):
        with pytest.raises(PlanError):
            build_engine(auto_materialize="yes please")


# -- the sectioned Report API -----------------------------------------------------


class TestReport:
    def test_section_names_are_stable(self):
        result = build_engine().query(ORDERS_BY_STATUS)
        report = result.report()
        assert set(report.names()) <= set(SECTION_ORDER)
        for required in ("plan", "metrics", "elapsed"):
            assert required in report.names()

    def test_views_section_present_on_view_answers(self):
        result = view_engine().query(ORDERS_BY_STATUS)
        report = result.report()
        assert "views" in report.names()
        assert "mv" in report.section("views").text()
        assert "view: mv" in result.explain()

    def test_render_matches_explain(self):
        result = build_engine().query(ORDERS_BY_STATUS)
        assert result.report().render() == result.explain()


# -- the engine clock threads into staleness (the bugfix) -------------------------


class TestClockThreading:
    def test_manager_staleness_uses_engine_clock(self):
        clock = SimClock()
        engine = build_engine(views=True, clock=clock)
        engine.views.define_materialized("mv", CUSTOMER_CITIES)
        clock.advance(42.0)
        assert engine.views.view("mv").staleness() == pytest.approx(42.0)

    def test_standalone_manager_accepts_clock(self):
        clock = SimClock()
        manager = ViewManager(build_engine(), clock=clock)
        manager.define_materialized("mv", CUSTOMER_CITIES)
        clock.advance(7.0)
        _, staleness = manager.read_with_staleness("mv")
        assert staleness == pytest.approx(7.0)


# -- the auto-materialization advisor ---------------------------------------------


class TestViewSelector:
    def test_admits_after_min_count_then_serves(self):
        engine = build_engine(auto_materialize=True)
        for _ in range(3):
            engine.query(ORDERS_BY_STATUS)
        assert engine.view_selector.owned_views() == ["auto_mv_1"]
        served = engine.query(ORDERS_BY_STATUS)
        assert served.view is not None
        assert served.view.view == "auto_mv_1"
        assert rows(served) == rows(build_engine().query(ORDERS_BY_STATUS))

    def test_below_min_count_stays_virtual(self):
        engine = build_engine(auto_materialize=True)
        engine.query(ORDERS_BY_STATUS)
        engine.query(ORDERS_BY_STATUS)
        assert engine.view_selector.owned_views() == []

    def test_unmaterializable_shapes_are_rejected_once(self):
        engine = build_engine(auto_materialize=True)
        sql = "SELECT name FROM customers LIMIT 2"  # LIMIT: not a view shape
        for _ in range(4):
            engine.query(sql)
        assert engine.view_selector.owned_views() == []
        [stats] = engine.view_selector._stats.values()
        assert stats.rejected

    def test_retires_lowest_benefit_when_over_budget(self):
        engine = build_engine(auto_materialize=True)
        selector = engine.view_selector
        for _ in range(3):
            engine.query(ORDERS_BY_STATUS)
            engine.query("SELECT city, COUNT(*) AS n FROM customers GROUP BY city")
        assert len(selector.owned_views()) == 2
        selector.byte_budget = 1  # shrink: everything must go
        selector.maintain()
        assert selector.owned_views() == []
        assert engine.views.materialized_names() == []

    def test_budget_admits_best_first(self):
        engine = build_engine(auto_materialize=True)
        recs = []
        for _ in range(3):
            engine.query(ORDERS_BY_STATUS)
        recs = engine.view_selector.recommendations()
        assert recs and recs[0].materialized_as == "auto_mv_1"

    def test_refresh_queries_do_not_feed_the_selector(self):
        engine = build_engine(auto_materialize=True)
        for _ in range(3):
            engine.query(ORDERS_BY_STATUS)
        orders = engine.catalog.sources["sales"].db.table("orders")
        orders.insert((999, 1, 2.5, "open"))
        engine.views.on_table_changed("orders")
        engine.query(ORDERS_BY_STATUS)  # refresh happens inside maintain()
        assert engine.view_selector.owned_views() == ["auto_mv_1"]


# -- the differential oracle ------------------------------------------------------

QUERY_POOL = (
    ORDERS_BY_STATUS,
    "SELECT status, AVG(total) AS avg_total FROM orders GROUP BY status",
    "SELECT cust_id, COUNT(*) AS n FROM orders GROUP BY cust_id",
    "SELECT name FROM customers WHERE city = 'SF'",
    "SELECT name, city FROM customers",
    "SELECT city, COUNT(*) AS n FROM customers GROUP BY city",
    "SELECT status, COUNT(*) AS n FROM orders WHERE total > 50 GROUP BY status",
)

#: what `redefine` may turn each of the oracle's two views into: the original,
#: a narrower and a differently-shaped definition over the same table
VIEW_POOLS = (
    (
        "mv_orders",
        (
            ORDERS_BY_STATUS_CUST,
            "SELECT status, cust_id, SUM(total) AS total_sum, COUNT(*) AS n "
            "FROM orders WHERE total > 50 GROUP BY status, cust_id",
            ORDERS_BY_STATUS,
        ),
    ),
    (
        "mv_customers",
        (
            CUSTOMER_CITIES,
            "SELECT id, name, city FROM customers WHERE city = 'SF'",
            "SELECT name, city FROM customers",
        ),
    ),
)

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, len(QUERY_POOL) - 1)),
        st.tuples(st.just("redefine"), st.integers(0, 5)),
        st.tuples(st.just("write_orders"), st.integers(1, 4)),
        st.tuples(st.just("write_customers"), st.integers(0, 1)),
        st.tuples(st.just("refresh"), st.just(0)),
        st.tuples(st.just("tick"), st.integers(1, 40)),
    ),
    min_size=1,
    max_size=25,
)


class TestDifferentialOracle:
    @given(
        actions=ACTIONS,
        serve_stale=st.booleans(),
        max_staleness=st.sampled_from([None, 5.0]),
    )
    @example(  # rows staged for the wide view, served for the narrow one
        actions=[("query", 4), ("redefine", 3), ("query", 3)],
        serve_stale=False,
        max_staleness=None,
    )
    @example(
        actions=[("query", 0), ("redefine", 2), ("query", 6)],
        serve_stale=False,
        max_staleness=None,
    )
    @settings(max_examples=40, deadline=None)
    def test_view_answers_match_plain_federation(
        self, actions, serve_stale, max_staleness
    ):
        clock = SimClock()
        policy = ServePolicy(max_staleness_s=max_staleness, serve_stale=serve_stale)
        viewed = build_engine(views=True, clock=clock, view_policy=policy)
        viewed.views.define_materialized("mv_orders", ORDERS_BY_STATUS_CUST)
        viewed.views.define_materialized("mv_customers", CUSTOMER_CITIES)
        plain = build_engine(clock=clock)
        next_id = 1000
        for action, arg in actions:
            if action == "query":
                sql = QUERY_POOL[arg]
                got = viewed.query(sql)
                want = plain.query(sql, use_views=False)
                if got.view is None or got.view.fresh:
                    assert rows(got) == rows(want), sql
                else:
                    # a stale serve: only legal under the policy, and always
                    # annotated with its staleness
                    assert serve_stale
                    assert got.view.staleness_s >= 0.0
            elif action == "write_orders":
                row = (next_id, arg, 2.5, "open")
                next_id += 1
                for engine in (viewed, plain):
                    engine.catalog.sources["sales"].db.table("orders").insert(row)
                viewed.views.on_table_changed("orders")
            elif action == "write_customers":
                row = (next_id, f"c{next_id}", "SF" if arg else "NY")
                next_id += 1
                for engine in (viewed, plain):
                    engine.catalog.sources["crm"].db.table("customers").insert(row)
                viewed.views.on_table_changed("customers")
            elif action == "redefine":
                # same name, other rows, and the clock does not move: nothing
                # derived from the dropped definition may answer for the new one
                name, definitions = VIEW_POOLS[arg % 2]
                viewed.views.drop(name)
                viewed.views.define_materialized(name, definitions[arg // 2])
            elif action == "refresh":
                viewed.views.refresh_all()
            elif action == "tick":
                clock.advance(float(arg))
        # convergence: after refreshing everything, views answer exactly
        viewed.views.refresh_all()
        for sql in QUERY_POOL:
            got = viewed.query(sql)
            assert rows(got) == rows(plain.query(sql, use_views=False)), sql
            if got.view is not None:
                assert got.view.fresh


# -- derive once --------------------------------------------------------------------


def count_calls(monkeypatch, owner, name, label):
    """Count calls of ``owner.name`` under ``label(*args)``; returns the Counter."""
    counts: Counter = Counter()
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[label(*args)] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return counts


class TestDerivedOnce:
    """What follows from a view's definition is derived once per definition,
    what follows from its rows at most once per refresh — in the style of
    `tests/test_prepare_once.py`'s planning-call counts."""

    CITY_COUNTS = "SELECT city, COUNT(*) AS n FROM customers GROUP BY city"

    def test_define_serve_write_serve(self, monkeypatch):
        compiles = count_calls(
            monkeypatch, view_manager, "compile_view", lambda name, *_: name
        )
        sized = []  # held, so no id() is ever reused
        inner_size = Relation.size_bytes
        monkeypatch.setattr(
            Relation, "size_bytes", lambda self: sized.append(self) or inner_size(self)
        )
        staged = count_calls(
            monkeypatch, view_manager.Table, "build", lambda name, *_: name
        )
        planned = count_calls(
            monkeypatch, LocalEngine, "logical_plan", lambda self, *_: self.db.name
        )

        engine = build_engine(auto_materialize=True, clock=SimClock())
        broker = MessageBroker()
        engine.attach_invalidation(broker)
        notifier = ChangeNotifier(broker)
        orders = engine.catalog.sources["sales"].db.table("orders")
        customers = engine.catalog.sources["crm"].db.table("customers")
        notifier.watch("orders", orders)
        notifier.watch("customers", customers)
        # INTERVAL like A11's hand-made view: dirtied by the broker, it
        # re-warehouses at its next serve; `mv_idle` is never matched
        engine.views.define_materialized(
            "mv", ORDERS_BY_STATUS_CUST, policy=RefreshPolicy.INTERVAL, interval_s=1e9
        )
        engine.views.define_materialized("mv_idle", "SELECT city, region FROM regions")
        for _ in range(3):  # the third repeat makes the advisor define auto_mv_1
            engine.query(self.CITY_COUNTS)
        assert engine.view_selector.owned_views() == ["auto_mv_1"]

        def serve_ten():
            results = [
                engine.query(sql)
                for _ in range(5)
                for sql in (ORDERS_BY_STATUS, self.CITY_COUNTS)
            ]
            return [result for result in results if result.view is not None]

        served = serve_ten()
        assert len(served) == 10
        orders.insert((999, 1, 2.5, "open"))
        customers.insert((999, "c999", "SF"))
        assert notifier.poll() == ["orders", "customers"]
        served += serve_ten()

        views = {name: engine.views.view(name) for name in engine.views.names()}
        assert sorted(views) == ["auto_mv_1", "mv", "mv_idle"]
        assert compiles == {name: 1 for name in views}  # once per definition
        refreshes = {name: view.refresh_count for name, view in views.items()}
        assert refreshes == {"auto_mv_1": 2, "mv": 2, "mv_idle": 1}
        # sized once per refresh — by the refresh query's own final transfer;
        # neither the advisor nor anyone else walks a relation a second time
        assert len({id(relation) for relation in sized}) == len(sized)
        for view in views.values():
            assert sum(relation is view.data for relation in sized) == 1
        # staged at the first serve after a refresh, never for an unserved view
        assert {name: staged[name] for name in views} == {
            "auto_mv_1": 2, "mv": 2, "mv_idle": 0,
        }
        # one fallback (auto_mv_1 is MANUAL: dirty until `maintain()` ran), and
        # every served query planned its compensation exactly once
        assert len(served) == 19
        for name, view in views.items():
            assert planned[f"view_{name}"] == view.serve_count
        assert sum(view.serve_count for view in views.values()) == len(served)
