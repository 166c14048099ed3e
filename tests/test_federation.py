"""Integration tests for federated planning and execution."""

import pytest

from repro.common.errors import PlanError, SchemaError
from repro.common.types import DataType as T
from repro.federation import (
    EngineConfig,
    FederatedEngine,
    FederatedPlanner,
    FederationCatalog,
    LogicalBindJoin,
    LogicalFetch,
)
from repro.sources import RelationalSource
from repro.storage import Database
from repro.trace import makespan
from repro.wrappers import GENERIC, QUIRK_AWARE

from tests.federation_fixtures import build_catalog, build_engine


class TestCatalog:
    def test_global_names(self):
        catalog = build_catalog()
        assert "customers" in catalog.table_names()
        assert catalog.source_of("orders").name == "sales"

    def test_rename(self):
        db = Database("x")
        db.create_table("customers", [("id", T.INT)])
        catalog = build_catalog()
        catalog.register_source(
            RelationalSource("legacy", db), rename={"customers": "legacy_customers"}
        )
        assert catalog.source_of("legacy_customers").name == "legacy"

    def test_name_collision_rejected(self):
        db = Database("x")
        db.create_table("customers", [("id", T.INT)])
        catalog = build_catalog()
        with pytest.raises(SchemaError):
            catalog.register_source(RelationalSource("dup", db))

    def test_duplicate_source_rejected(self):
        catalog = build_catalog()
        db = Database("y")
        with pytest.raises(SchemaError):
            catalog.register_source(RelationalSource("crm", db))

    def test_resolver_protocol(self):
        catalog = build_catalog()
        assert catalog.resolve_table("orders").names == [
            "id", "cust_id", "total", "status",
        ]

    def test_stats_protocol(self):
        catalog = build_catalog()
        assert catalog.table_stats("customers").row_count == 8


class TestSingleSourceQueries:
    def test_whole_query_pushed_to_one_source(self):
        engine = build_engine()
        plan = engine.planner.plan(
            "SELECT cust_id, SUM(total) AS s FROM orders GROUP BY cust_id"
        )
        assert len(plan.fetches) == 1
        assert isinstance(plan.root, LogicalFetch)
        result = engine.execute_plan(plan)
        assert len(result.relation) == 8

    def test_single_source_result_correct(self):
        result = build_engine().query("SELECT COUNT(*) AS n FROM customers")
        assert result.relation.rows == [(8,)]

    def test_scan_only_source_processed_at_mediator(self):
        engine = build_engine()
        plan = engine.planner.plan("SELECT region FROM regions WHERE city = 'SF'")
        # the filter cannot push into the spreadsheet: fetch is a bare scan
        fetch = plan.fetches[0]
        assert "WHERE" not in str(fetch.stmt)
        result = engine.execute_plan(plan)
        assert result.relation.rows == [("west",)]


class TestCrossSourceJoins:
    def test_two_source_join_correct(self):
        result = build_engine().query(
            "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id "
            "WHERE o.total > 100"
        )
        assert len(result.relation) == len(
            [i for i in range(1, 41) if i * 3.5 > 100]
        )

    def test_filters_pushed_into_component_queries(self):
        engine = build_engine()
        plan = engine.planner.plan(
            "SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id "
            "WHERE o.total > 100 AND c.city = 'SF'"
        )
        component_sqls = [str(fetch.stmt) for fetch in plan.fetches]
        component_sqls += [str(bind.template) for bind in plan.bind_joins]
        assert any("total" in sql and ">" in sql for sql in component_sqls)
        assert any("city" in sql for sql in component_sqls)

    def test_three_source_join(self):
        result = build_engine().query(
            "SELECT c.name, r.region FROM customers c "
            "JOIN regions r ON c.city = r.city WHERE c.id = 1"
        )
        assert result.relation.rows == [("cust1", "west")]

    def test_metrics_account_transfers(self):
        result = build_engine().query(
            "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        assert result.metrics.rows_shipped > 0
        assert result.metrics.total_source_queries() >= 2
        assert result.elapsed_seconds > 0

    def test_assembly_site_prefers_biggest_producer(self):
        engine = FederatedEngine(build_catalog(), EngineConfig(semijoin="off"))
        plan = engine.planner.plan(
            "SELECT c.id, o.id FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        assert plan.assembly_site == "sales"  # orders is the largest input

    def test_hub_only_when_disabled(self):
        engine = FederatedEngine(build_catalog(), EngineConfig(choose_assembly_site=False))
        plan = engine.planner.plan(
            "SELECT c.id, o.id FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        assert plan.assembly_site == "hub"


class TestDialectDrivenPlanning:
    def test_generic_wrapper_ships_more(self):
        quirk = FederatedEngine(build_catalog(sales_dialect=QUIRK_AWARE))
        generic = FederatedEngine(build_catalog(sales_dialect=GENERIC))
        sql = (
            "SELECT o.id FROM orders o WHERE o.total > 120 AND o.status LIKE 'o%'"
        )
        quirk_result = quirk.query(sql)
        generic_result = generic.query(sql)
        assert quirk_result.relation.sorted().rows == generic_result.relation.sorted().rows
        assert generic_result.metrics.rows_shipped > quirk_result.metrics.rows_shipped

    def test_partial_pushdown_splits_filter(self):
        engine = FederatedEngine(build_catalog(sales_dialect=GENERIC))
        plan = engine.planner.plan(
            "SELECT o.id FROM orders o WHERE o.total > 120 AND o.status LIKE 'o%'"
        )
        fetch = plan.fetches[0]
        sql = str(fetch.stmt)
        assert "total" in sql and "LIKE" not in sql

    def test_aggregate_stays_local_without_capability(self):
        from repro.wrappers import CONSERVATIVE

        engine = FederatedEngine(build_catalog(sales_dialect=CONSERVATIVE))
        plan = engine.planner.plan(
            "SELECT cust_id, COUNT(*) FROM orders GROUP BY cust_id"
        )
        assert all("GROUP BY" not in str(f.stmt) for f in plan.fetches)
        result = engine.execute_plan(plan)
        assert len(result.relation) == 8

    @pytest.mark.parametrize("where, ids", [("active", [1, 3]), ("NOT active", [2])])
    def test_a_scan_only_source_is_sent_no_predicate(self, where, ids):
        """A bare boolean column is a predicate too: it stays at the hub."""
        from repro.sources import CsvSource

        files = CsvSource("files")
        files.add_table("flags", [("id", T.INT), ("active", T.BOOL)], [(1, True), (2, False), (3, True)])
        catalog = FederationCatalog()
        catalog.register_source(files)
        engine = FederatedEngine(catalog)
        sql = f"SELECT id FROM flags WHERE {where}"
        assert sorted(engine.query(sql).relation.column_values("id")) == ids
        assert [fetch.stmt.where for fetch in engine.planner.plan(sql).fetches] == [None]


class TestBindJoins:
    def test_webservice_requires_bind_join(self):
        engine = build_engine()
        plan = engine.planner.plan(
            "SELECT c.name, cr.score FROM customers c JOIN credit cr ON cr.cust_id = c.id"
        )
        binds = [n for n in plan.root.walk() if isinstance(n, LogicalBindJoin)]
        assert len(binds) == 1
        result = engine.execute_plan(plan)
        assert len(result.relation) == 8

    def test_webservice_without_join_key_fails(self):
        engine = build_engine()
        with pytest.raises(PlanError, match="access path|binding"):
            engine.planner.plan("SELECT score FROM credit")

    def test_webservice_filter_becomes_residual(self):
        engine = build_engine()
        result = engine.query(
            "SELECT c.name, cr.score FROM customers c JOIN credit cr "
            "ON cr.cust_id = c.id WHERE cr.score > 650"
        )
        assert all(row[1] > 650 for row in result.relation.rows)

    def test_webservice_on_left_side_commutes(self):
        engine = build_engine()
        result = engine.query(
            "SELECT cr.score, c.name FROM credit cr JOIN customers c "
            "ON cr.cust_id = c.id WHERE c.id = 3"
        )
        assert result.relation.rows == [(630, "cust3")]

    def test_forced_semijoin_between_relational_sources(self):
        engine = FederatedEngine(build_catalog(), EngineConfig(semijoin="force"))
        plan = engine.planner.plan(
            "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        binds = [n for n in plan.root.walk() if isinstance(n, LogicalBindJoin)]
        assert binds
        result = engine.execute_plan(plan)
        assert len(result.relation) == 40

    def test_semijoin_off_ships_whole_tables(self):
        off = FederatedEngine(build_catalog(), EngineConfig(semijoin="off"))
        force = FederatedEngine(build_catalog(), EngineConfig(semijoin="force"))
        sql = (
            "SELECT c.name, o.total FROM customers c JOIN orders o "
            "ON c.id = o.cust_id WHERE c.city = 'SF'"
        )
        off_result = off.query(sql)
        force_result = force.query(sql)
        assert off_result.relation.sorted().rows == force_result.relation.sorted().rows
        assert force_result.metrics.rows_shipped <= off_result.metrics.rows_shipped

    def test_bind_join_chunking(self):
        engine = FederatedEngine(build_catalog(), EngineConfig(semijoin="force"))
        engine.planner.max_inlist = 3
        plan = engine.planner.plan(
            "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        binds = [n for n in plan.root.walk() if isinstance(n, LogicalBindJoin)]
        assert len(binds) == 1
        probed = binds[0].source.name
        result = engine.execute_plan(plan)
        # 8 distinct keys at 3 per chunk = 3 component queries to the probed side
        assert result.metrics.source_queries[probed] == 3
        assert len(result.relation) == 40

    def run_chunked(self, max_inlist, sql=None):
        engine = FederatedEngine(build_catalog(), EngineConfig(semijoin="force"))
        engine.planner.max_inlist = max_inlist
        plan = engine.planner.plan(
            sql
            or "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        binds = [n for n in plan.root.walk() if isinstance(n, LogicalBindJoin)]
        assert len(binds) == 1
        result = engine.execute_plan(plan)
        return result, binds[0].source.name

    def test_bind_fetch_exact_inlist_boundary_single_chunk(self):
        # 8 distinct keys with max_inlist=8: exactly one probe, no empty tail.
        result, probed = self.run_chunked(8)
        assert result.metrics.source_queries[probed] == 1
        assert len(result.relation) == 40

    def test_bind_fetch_one_over_the_boundary(self):
        # 8 keys at 7 per chunk: a full chunk plus a 1-key remainder.
        result, probed = self.run_chunked(7)
        assert result.metrics.source_queries[probed] == 2
        assert len(result.relation) == 40

    def test_bind_fetch_empty_key_list_probes_nothing(self):
        # No left rows survive the filter, so the probed source must not
        # receive a single component query.
        result, probed = self.run_chunked(
            3,
            sql=(
                "SELECT c.name, o.total FROM customers c "
                "JOIN orders o ON c.id = o.cust_id WHERE c.id = 99"
            ),
        )
        assert result.metrics.source_queries[probed] == 0
        assert len(result.relation) == 0


class TestEquivalenceAcrossModes:
    SQL = (
        "SELECT c.city, COUNT(*) AS n, SUM(o.total) AS s FROM customers c "
        "JOIN orders o ON c.id = o.cust_id WHERE o.status = 'open' "
        "GROUP BY c.city ORDER BY s DESC"
    )

    def test_all_planner_modes_agree(self):
        results = []
        for semijoin in ("auto", "force", "off"):
            for site in (True, False):
                engine = FederatedEngine(build_catalog(), EngineConfig(semijoin=semijoin, choose_assembly_site=site))
                results.append(engine.query(self.SQL).relation.sorted().rows)
        assert all(rows == results[0] for rows in results)

    def test_federated_matches_single_engine(self):
        """Co-locating all tables in one DB must give identical answers."""
        from repro.engine import LocalEngine

        db = Database("all")
        db.create_table(
            "customers", [("id", T.INT), ("name", T.STRING), ("city", T.STRING)],
            primary_key=["id"],
        )
        db.create_table(
            "orders",
            [("id", T.INT), ("cust_id", T.INT), ("total", T.FLOAT), ("status", T.STRING)],
            primary_key=["id"],
        )
        for i in range(1, 9):
            db.table("customers").insert((i, f"cust{i}", "SF" if i % 2 else "NY"))
        for i in range(1, 41):
            db.table("orders").insert(
                (i, (i % 8) + 1, i * 3.5, "open" if i % 2 else "closed")
            )
        local = LocalEngine(db).query(self.SQL).sorted()
        federated = build_engine().query(self.SQL).relation.sorted()
        assert local.rows == federated.rows


class TestParallelism:
    def test_makespan_serial(self):
        assert makespan([1.0, 2.0, 3.0], workers=1) == 6.0

    def test_makespan_fully_parallel(self):
        assert makespan([1.0, 2.0, 3.0], workers=3) == 3.0

    def test_makespan_two_workers(self):
        assert makespan([3.0, 1.0, 1.0, 1.0], workers=2) == 3.0

    def test_makespan_empty(self):
        assert makespan([], workers=4) == 0.0

    def test_makespan_more_workers_than_tasks(self):
        # Extra slots stay idle; elapsed is the longest single task.
        assert makespan([2.0, 5.0], workers=16) == 5.0

    def test_makespan_single_worker_equals_sum(self):
        durations = [0.25, 1.5, 0.125, 3.0, 0.0625]
        assert makespan(durations, workers=1) == sum(durations)

    def test_makespan_zero_workers_clamped_to_one(self):
        assert makespan([1.0, 2.0], workers=0) == 3.0

    def test_parallel_workers_reduce_elapsed(self):
        sql = (
            "SELECT c.name, r.region, o.total FROM customers c "
            "JOIN regions r ON c.city = r.city "
            "JOIN orders o ON o.cust_id = c.id"
        )
        serial = FederatedEngine(build_catalog(), EngineConfig(parallel_workers=1)).query(sql)
        parallel = FederatedEngine(build_catalog(), EngineConfig(parallel_workers=4)).query(sql)
        assert parallel.relation.sorted().rows == serial.relation.sorted().rows
        assert parallel.elapsed_seconds <= serial.elapsed_seconds


class TestByteAccounting:
    """Sizing a relation walks every value of every row, so the engine
    sizes each payload once and hands the number to every consumer."""

    SQL = (
        "SELECT c.name, o.total FROM customers c "
        "JOIN orders o ON c.id = o.cust_id WHERE o.total > 100"
    )

    @staticmethod
    def sized(monkeypatch):
        from repro.common.relation import Relation

        calls: list = []
        original = Relation.size_bytes

        def counting(relation):
            calls.append(relation)
            return original(relation)

        monkeypatch.setattr(Relation, "size_bytes", counting)
        return calls

    def test_default_engine_sizes_the_final_relation_once(self, monkeypatch):
        calls = self.sized(monkeypatch)
        result = build_engine().query(self.SQL)
        assert sum(sized is result.relation for sized in calls) == 1

    def test_observers_reuse_the_fetch_boundary_size(self, monkeypatch):
        from repro.cache import CacheConfig, CacheHierarchy
        from repro.trace import Tracer

        calls = self.sized(monkeypatch)
        engine = build_engine(
            cache=CacheHierarchy(CacheConfig()),
            tracer=Tracer(),
            telemetry=True,
            adaptive=True,
        )
        result = engine.query(self.SQL)
        # one walk per fetched payload, one for the answer — not one per
        # consumer (transfer record, span, telemetry, cache entry, feedback)
        assert len(calls) == len(result.plan.fetches) + 1
        assert len({id(sized) for sized in calls}) == len(calls)

    def test_sizing_makes_at_most_two_python_calls_per_value(self):
        import datetime
        import sys

        from repro.common.relation import Relation
        from repro.common.schema import RelSchema

        schema = RelSchema.of(
            ("id", T.INT), ("name", T.STRING), ("total", T.FLOAT),
            ("day", T.DATE), ("paid", T.BOOL), ("note", T.STRING),
        )  # fmt: skip
        day = datetime.date(2005, 6, 14)
        relation = Relation(
            schema, [(i, f"name{i}", i / 7, day, i % 2 == 0, None) for i in range(1000)]
        )
        calls = 0

        def count_calls(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count_calls)
        try:
            size = relation.size_bytes()
        finally:
            sys.setprofile(None)
        assert size == sum(10 + 2 + len(row[1]) + 10 + 10 + 3 + 2 for row in relation.rows)
        assert calls <= 2 * 1000 * 6


class TestLinearSourceWork:
    """A bind join's pushed-down `key IN (k1, ..., kn)` costs the source work
    that follows the rows it scans, not rows × keys. Counted, never timed."""

    ROWS = 2000

    def equality_work(self, key_count):
        from repro.sql.shape import with_in_filter
        from repro.sql.ast import ColumnRef
        from repro.sql.parser import parse_select

        class CountingInt(int):
            work = 0

            def __eq__(self, other):
                CountingInt.work += 1
                return int.__eq__(self, other)

            def __hash__(self):
                CountingInt.work += 1
                return int.__hash__(self)

        db = Database("sales")
        db.create_table("orders", [("id", T.INT), ("cust_id", T.INT)])
        db.table("orders").insert_many(
            (i, CountingInt(i % 1000)) for i in range(self.ROWS)
        )
        source = RelationalSource("sales", db)
        # 25 keys match two rows each; the rest of the list matches nothing
        keys = list(range(25)) + list(range(10_000, 10_000 + key_count - 25))
        stmt = with_in_filter(
            parse_select("SELECT o.id, o.cust_id FROM orders o"),
            ColumnRef("cust_id", "o"),
            keys,
        )
        CountingInt.work = 0
        result = source.execute_select(stmt)
        assert sorted(result.column_values("id")) == sorted(
            i for i in range(self.ROWS) if i % 1000 < 25
        )
        return CountingInt.work

    def test_eight_times_the_keys_is_not_eight_times_the_comparisons(self):
        few, many = self.equality_work(50), self.equality_work(400)
        assert few >= self.ROWS  # every scanned row is looked at
        assert many <= 1.5 * few
