"""Prepare once, run many — and never run anything stale.

Two places stopped re-deriving a repeated statement: a `RelationalSource`
keeps prepared statements, `canonical_statement` keeps parsed texts; and no
query starts a thread. The tests here hold each of them to the
behaviour of the code that derived everything on every call: a differential
property for the prepared statements, and one test per check that must stay
per-call (it fails if the check is cached away).
"""

import datetime
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import canonical_statement, keys
from repro.common.errors import CapabilityError, ParseError, PlanError, SourceError
from repro.federation import EngineConfig, FederatedEngine
from repro.sql.shape import with_in_filter
from repro.federation.resilience import ResiliencePolicy
from repro.netsim import FaultInjector, Outage, SimClock, Transient
from repro.sources import RelationalSource, SourceCapabilities
from repro.sources.relational import PREPARED_STATEMENTS
from repro.sql.ast import ColumnRef, InList, Literal, LiteralValues, Param, Select
from repro.sql.eval import compile_filter_passes, compile_predicate
from repro.sql.exprutil import walk
from repro.sql.parser import parse, parse_with_origins
from repro.sql.printer import to_sql
from repro.sql.shape import FAMILY, lift
from repro.wrappers.pushability import binding_supplier, statement_reasons
from repro.wrappers import ACMEDB, GENERIC, LEGACYSQL, QUIRK_AWARE

from tests.conftest import build_demo_db
from tests.test_operator_oracle import python_calls
from tests.federation_fixtures import build_catalog, build_engine

JOIN_Q = (
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.total > 100"
)
POINT_Q = "SELECT name FROM customers WHERE id = 3"


class Charges:
    """The `metrics` a source charges its simulated seconds to."""

    def __init__(self):
        self.seconds = []

    def record_source_query(self, name, seconds):
        self.seconds.append((name, seconds))


def answer(source, stmt):
    """Everything a caller can observe of one `execute_select`."""
    charges = Charges()
    logged = len(source.query_log)
    try:
        relation = source.execute_select(stmt, charges)
        outcome = (relation.schema.names, [repr(row) for row in relation.rows])
    except Exception as exc:  # noqa: BLE001 - the failure is the observation
        outcome = (type(exc), str(exc))
    return outcome, charges.seconds, list(source.query_log)[logged:]


# -- prepared statements: one long-lived source == a fresh source per call ------

STATEMENTS = [
    parse(text)
    for text in (
        POINT_Q,
        "SELECT id, total FROM orders WHERE status = 'open' AND total > 200",
        "SELECT id, total FROM orders WHERE total > 300",
        "SELECT status, COUNT(*) AS n, SUM(total) AS revenue FROM orders GROUP BY status",
        "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id "
        "WHERE o.total > 350 ORDER BY o.total DESC LIMIT 5",
        "SELECT id, severity FROM tickets WHERE open = TRUE AND severity >= 3",
        "SELECT name FROM customers WHERE name LIKE 'cust0%'",
        # equal under Python's `1 == 1.0 == True`, three statements to SQL
        "SELECT 1 AS k FROM customers WHERE id = 1",
        "SELECT 1.0 AS k FROM customers WHERE id = 1",
        "SELECT TRUE AS k FROM customers WHERE id = 1",
        "SELECT 0.0 AS k FROM customers WHERE id = 1",
        "SELECT -0.0 AS k FROM customers WHERE id = 1",
    )
]
BIND_TEMPLATE = parse("SELECT o.cust_id, o.total FROM orders o WHERE o.total > 100")
BIND_KEY = ColumnRef("cust_id", "o")
DIALECTS = [QUIRK_AWARE, ACMEDB, LEGACYSQL, GENERIC]

statements = st.one_of(
    st.sampled_from(STATEMENTS),
    st.lists(st.integers(1, 25), max_size=6).map(
        lambda ids: with_in_filter(BIND_TEMPLATE, BIND_KEY, ids)
    ),
)
write_ops = st.one_of(
    st.tuples(st.just("insert"), st.integers(1000, 1005), st.integers(1, 20)),
    st.tuples(st.just("update"), st.integers(1, 20)),
    st.tuples(st.just("delete"), st.integers(1, 20)),
    st.tuples(
        st.just("index"),
        st.sampled_from([("customers", "id"), ("orders", "total"), ("orders", "cust_id")]),
        st.booleans(),
    ),
    st.tuples(st.just("vacuum"), st.sampled_from(["orders", "customers"])),
    st.tuples(st.just("recreate"), st.integers(0, 3)),
    st.tuples(st.just("dialect"), st.sampled_from(DIALECTS)),
)


def apply_write(db, source, op):
    kind = op[0]
    if kind == "insert":
        if db.table("orders").get(op[1]) is None:
            db.table("orders").insert((op[1], op[2], 777.0, "open"))
    elif kind == "update":
        db.table("orders").update_where(
            lambda row: row[1] == op[1], lambda row: row[:2] + (row[2] + 50.0, row[3])
        )
    elif kind == "delete":
        db.table("orders").delete_where(lambda row: row[1] == op[1])
    elif kind == "index":
        (table, column), is_sorted = op[1], op[2]
        db.table(table).create_index(column, sorted=is_sorted)
    elif kind == "vacuum":
        db.table(op[1]).vacuum()
    elif kind == "recreate":
        # a new `Table` under the old name: no indexes, and as many inserts
        # (so the same `version`) as the demo table started with
        old = db.table("customers")
        db.drop_table("customers")
        new = db.create_table(
            "customers",
            [(column.name, column.dtype) for column in old.schema],
            primary_key=["id"],
        )
        for i in range(1, 21):
            new.insert((i, f"cust{i:02d}r{op[1]}", "SEA", "smb"))
    elif kind == "dialect":
        source.capabilities.dialect = op[1]


class TestPreparedStatementsDifferential:
    @settings(max_examples=100, deadline=None)
    # a sorted index created later turns heap order into key order ...
    @example([STATEMENTS[2]], [0, ("index", ("orders", "total"), True), 0])
    # ... and `vacuum` re-creates it, `recreate` is a new table at the same
    # `version`, a dialect swap prints `TRUE` as `1`, an insert moves the cost
    @example([STATEMENTS[2]], [("index", ("orders", "total"), True), 0, ("vacuum", "orders"), 0])
    @example([STATEMENTS[0]], [0, ("recreate", 1), 0])
    @example([STATEMENTS[5]], [0, ("dialect", ACMEDB), 0, ("dialect", GENERIC), 0])
    @example([STATEMENTS[3]], [0, ("insert", 1000, 3), 0, ("delete", 3), 0])
    @example(STATEMENTS[-5:-2], [0, 1, 2, 0, 1, 2])
    @example(STATEMENTS[-2:], [0, 1, 0, 1])
    @given(
        st.lists(statements, min_size=1, max_size=3),
        st.lists(st.one_of(st.integers(0, 2), st.integers(0, 2), write_ops), max_size=30),
    )
    def test_long_lived_source_answers_like_a_fresh_one(self, working_set, ops):
        """`ops` interleaves writes with reads of a few statements (an int
        picks one), the way repeating traffic meets a changing source."""
        db = build_demo_db()
        veteran = RelationalSource("s", db)
        for op in ops:
            if not isinstance(op, int):
                apply_write(db, veteran, op)
                continue
            stmt = working_set[op % len(working_set)]
            fresh = RelationalSource("s", db, dialect=veteran.capabilities.dialect)
            assert answer(veteran, stmt) == answer(fresh, stmt)

    def test_literal_types_keep_statements_apart(self):
        source = RelationalSource("s", build_demo_db())
        answers = [answer(source, stmt) for stmt in STATEMENTS[-5:]]
        assert [outcome[1] for outcome, _, _ in answers] == [
            ["(1,)"], ["(1.0,)"], ["(True,)"], ["(0.0,)"], ["(-0.0,)"]
        ]
        assert len({log[0] for _, _, log in answers}) == 5


    def test_literals_are_equal_when_sql_would_call_them_the_same(self):
        assert Literal(1) == Literal(1) and hash(Literal(1)) == hash(Literal(1))
        assert Literal("a") == Literal("a") and Literal(None) == Literal(None)
        assert len({Literal(1), Literal(1.0), Literal(True), Literal("1")}) == 4
        assert Literal(0.0) != Literal(-0.0)
        assert Literal(float("nan")) == Literal(float("nan"))
        assert Literal(1) != 1


# -- a bind join's keys: values, read as the `Literal`s they stand for -----------

NAN = float("nan")
KEY_VALUES = st.sampled_from([
    0, 1, 2, True, False, 1.0, 0.0, -0.0, 2.5, NAN, float("nan"), float("inf"),
    "1", "a", "", None, datetime.date(2005, 6, 14), datetime.datetime(2005, 6, 14), 2**53 + 1,
])
key_lists = st.lists(KEY_VALUES, max_size=5)


def literal_in(keys):
    """`with_in_filter` as it was: one `Literal` node per key, in a tuple."""
    stmt = with_in_filter(BIND_TEMPLATE, BIND_KEY, keys)
    (in_list,) = [node for node in walk(stmt.where) if isinstance(node, InList)]
    nodes = tuple(Literal(key) for key in keys)
    where = stmt.where.__class__(stmt.where.op, stmt.where.left, InList(in_list.operand, nodes))
    return Select(stmt.items, stmt.from_tables, stmt.joins, where)


class TestValueBackedInList:
    @settings(max_examples=500, deadline=None)
    @example([1], [1.0])
    @example([1], [True])
    @example([0.0], [-0.0])
    @example([NAN], [float("nan")])
    @example([1, "a"], [1, "a"])
    @example([datetime.date(2005, 6, 14)], [datetime.datetime(2005, 6, 14)])
    @example([], [])
    @given(key_lists, key_lists)
    def test_equal_and_hashed_exactly_as_the_literal_tuples(self, a, b):
        as_nodes = tuple(map(Literal, a)) == tuple(map(Literal, b))
        assert (LiteralValues(a) == LiteralValues(b)) == as_nodes
        assert (with_in_filter(BIND_TEMPLATE, BIND_KEY, a) == with_in_filter(BIND_TEMPLATE, BIND_KEY, b)) == as_nodes
        if as_nodes:
            assert hash(LiteralValues(a)) == hash(LiteralValues(b))
            assert hash(with_in_filter(BIND_TEMPLATE, BIND_KEY, a)) == hash(with_in_filter(BIND_TEMPLATE, BIND_KEY, b))

    def test_what_sql_tells_apart_stays_apart(self):
        lists = [[1], [1.0], [True], [0.0], [-0.0], ["1"], [None], [1, 2], [2, 1], [NAN], []]
        assert len({LiteralValues(keys) for keys in lists}) == len(lists)
        assert len({with_in_filter(BIND_TEMPLATE, BIND_KEY, keys) for keys in lists}) == len(lists)
        assert LiteralValues([1]) != (Literal(1),) and LiteralValues([NAN]) == LiteralValues([float("nan")])

    @settings(max_examples=200, deadline=None)
    @example([1.0, 3, None])
    @example([])
    @given(st.lists(st.one_of(st.integers(1, 9), st.sampled_from([None, 2.0, 8.5, True, "x", NAN])), max_size=6))
    def test_reads_prints_pushes_and_answers_as_the_literal_tuple_does(self, keys):
        valued, noded = with_in_filter(BIND_TEMPLATE, BIND_KEY, keys), literal_in(keys)
        (items,) = [node.items for node in walk(valued.where) if isinstance(node, InList)]
        assert len(items) == len(keys) and tuple(items) == tuple(map(Literal, keys))
        assert [items[i] for i in range(len(keys))] == list(items) and items[-1:] == tuple(items)[-1:]
        leaves = [[node for node in walk(stmt.where) if isinstance(node, Literal)] for stmt in (valued, noded)]
        assert leaves[0] == leaves[1] and len(leaves[0]) == len(keys) + 1
        assert to_sql(valued) == to_sql(noded) and str(valued.where) == str(noded.where)
        for dialect in DIALECTS:
            capabilities = SourceCapabilities(dialect)
            assert statement_reasons(valued, capabilities) == statement_reasons(noded, capabilities)
            assert to_sql(valued, dialect.print_options) == to_sql(noded, dialect.print_options)
        db = build_demo_db()
        assert answer(RelationalSource("s", db), valued) == answer(RelationalSource("s", db), noded)
        schema = db.table("orders").schema.with_qualifier("o")
        rows = list(db.table("orders").rows())
        by_value, by_node = (compile_predicate(stmt.where, schema) for stmt in (valued, noded))
        assert [by_value(row) for row in rows] == [by_node(row) for row in rows]
        assert (compile_filter_passes([valued.where.right], schema) is None) == (compile_filter_passes([noded.where.right], schema) is None)

    def test_a_web_service_reads_its_keys_off_either_form(self):
        from repro.sources import WebServiceSource
        from repro.common.types import DataType as T

        credit = WebServiceSource("svc", "credit", [("cust_id", T.INT), ("score", T.INT)], "cust_id", rows=[(i, 600 + i) for i in range(1, 9)])
        template = parse("SELECT cust_id, score FROM credit")
        valued = with_in_filter(template, ColumnRef("cust_id"), [3, 5, 3, 99])
        noded = Select(valued.items, valued.from_tables, where=InList(ColumnRef("cust_id"), tuple(map(Literal, [3, 5, 3, 99]))))
        assert binding_supplier(valued.where) == binding_supplier(noded.where) == (ColumnRef("cust_id"), (3, 5, 3, 99))
        assert credit.execute_select(valued).rows == credit.execute_select(noded).rows == [(3, 603), (5, 605)]

    @pytest.mark.race_sanitize_exempt  # the sanitizer's lock wrappers are Python calls too
    def test_the_prepared_map_hashes_and_compares_keys_at_c_level(self):
        """Counted, never timed: a bind statement used to cost three Python
        calls per key at the map (`Literal.__hash__` twice, `__eq__` once);
        now it is found under its shape (a `str`) and told from the other
        bindings of its family by one C-level compare of the key tuples
        (`Family.find`) - what that costs does not depend on how many keys there are."""
        source = RelationalSource("s", build_demo_db())
        calls, found = {}, []
        for count in (2, 200):
            keys = list(range(1, count + 1))
            source.execute_select(with_in_filter(BIND_TEMPLATE, BIND_KEY, keys))
            stmt = with_in_filter(BIND_TEMPLATE, BIND_KEY, keys)  # equal, not the same object
            hits = source._prepared.stats.hits

            def find():
                shape, _, values = lift(stmt)
                return [source._prepared.get(shape).find(values, reads=None)]  # an exact hit reads nothing

            calls[count] = python_calls(lambda: found.extend(find()))
            assert source._prepared.stats.hits == hits + 1 and found[0].values == lift(stmt).values
            assert python_calls(lambda: with_in_filter(BIND_TEMPLATE, BIND_KEY, keys)) <= 20  # no `Literal` made
            assert stmt.where.right.items._literals is None
            found.clear()
        assert all(key.__class__ is str for key in source._prepared._entries)  # no `Select` keys a plan
        assert calls[2] == calls[200] <= 20  # the 200-key list, newest, is the first compared

    def test_two_executions_of_a_bind_join_share_one_prepared_statement(self, monkeypatch):
        engine = FederatedEngine(build_catalog(), EngineConfig(semijoin="force"))
        sql = "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
        probed = engine.planner.plan(sql).bind_joins[0].source
        planned = []
        plan = probed.engine.logical_plan
        monkeypatch.setattr(probed.engine, "logical_plan", lambda stmt: planned.append(stmt) or plan(stmt))
        first = engine.query(sql)
        hits = probed._prepared.stats.hits
        again = engine.query(sql)
        assert again.relation.rows == first.relation.rows and len(first.relation) == 40
        assert len(planned) == 1 and probed._prepared.stats.hits == hits + 1
        (in_list,) = [node for node in walk(planned[0].where) if isinstance(node, InList)]
        assert in_list.items == Param(in_list.items.index, LiteralValues)  # the keys: one slot of the plan
        (sent,) = [node for node in walk(parse(probed.query_log[-1]).where) if isinstance(node, InList)]
        assert len(sent.items) == 8  # what the source was sent


class TestPreparedStatementReuse:
    def planning_calls(self, source, monkeypatch):
        calls = []
        plan = source.engine.logical_plan
        monkeypatch.setattr(
            source.engine, "logical_plan", lambda stmt: calls.append(stmt) or plan(stmt)
        )
        return calls

    def test_a_repeat_is_not_planned_again_until_something_changed(self, monkeypatch):
        db = build_demo_db()
        source = RelationalSource("s", db)
        calls = self.planning_calls(source, monkeypatch)
        stmt = parse(POINT_Q)
        for _ in range(3):
            source.execute_select(stmt)
        assert len(calls) == 1
        source.execute_select(parse(POINT_Q))  # an equal statement, new object
        assert len(calls) == 1
        db.table("customers").insert((99, "late", "SF", "smb"))
        source.execute_select(stmt)
        assert len(calls) == 2
        db.table("customers").create_index("id")  # leaves `version` alone
        source.execute_select(stmt)
        assert len(calls) == 3
        source.capabilities.dialect = ACMEDB
        source.execute_select(stmt)
        assert len(calls) == 4
        source.execute_select(stmt)
        assert len(calls) == 4

    def test_a_write_to_another_table_keeps_the_plan(self, monkeypatch):
        db = build_demo_db()
        source = RelationalSource("s", db)
        calls = self.planning_calls(source, monkeypatch)
        stmt = parse(POINT_Q)
        source.execute_select(stmt)
        db.table("orders").delete_where(lambda row: row[0] == 1)
        source.execute_select(stmt)
        assert len(calls) == 1

    def test_never_repeating_traffic_stays_bounded(self):
        source = RelationalSource("s", build_demo_db())
        for i in range(3 * PREPARED_STATEMENTS):  # distinct *shapes*: `<` lifts nothing
            source.execute_select(parse(f"SELECT name FROM customers WHERE id < {i}"))
        assert len(source._prepared) == PREPARED_STATEMENTS

    def test_never_repeating_lookups_stay_inside_their_shape(self):
        """Distinct ids are one shape: they turn over its bindings, and evict
        no repeating statement - at the source or from the plan cache."""
        engine = build_engine()
        dashboard = "SELECT city, COUNT(*) AS n FROM customers GROUP BY city"
        engine.query(dashboard)
        crm = engine.catalog.sources["crm"]
        (prepared,) = crm._prepared._entries
        for i in range(300):
            engine.query(f"SELECT name FROM customers WHERE id = {i}")
        assert prepared in crm._prepared and len(crm._prepared) == 2
        (lookups,) = set(crm._prepared._entries) - {prepared}
        assert len(crm._prepared.get(lookups).members) == FAMILY
        assert len(engine.cache.plans) == 2
        assert engine.query(dashboard).metrics.plan_cache_hits == 1


    def test_workers_sharing_a_source_each_get_their_own_statement_answered(self):
        """More threads than cores, more statements than the map holds (so
        entries are evicted and re-prepared under contention): an answer
        cross-wired to another statement's plan would name the wrong row."""
        source = RelationalSource("s", build_demo_db())
        stmts = [
            parse(f"SELECT id, name FROM customers WHERE id = {i % 20 + 1} AND id < {i + 100}")
            for i in range(PREPARED_STATEMENTS + 8)
        ]
        wrong, deadline = [], time.monotonic() + 2.0

        def worker(offset):
            position = offset
            while time.monotonic() < deadline and not wrong:
                position = (position + 7) % len(stmts)
                rows = source.execute_select(stmts[position]).rows
                expected = position % 20 + 1
                if rows != [(expected, f"cust{expected:02d}")]:
                    wrong.append((position, rows))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(source._prepared) <= PREPARED_STATEMENTS


class TestDerivedMemosUnderWorkers:
    def test_workers_deriving_one_tables_memos_all_size_and_vouch_soundly(self):
        """Kinds and statistics memos are written by whichever thread asks
        first; a round of writes lands between rounds of reads (a table
        has no lock of its own). More threads than cores, short switch
        interval: a vouch derived for one version and used for another would
        mis-size the NULL row or hide its type from the guard."""
        from repro.common.types import row_size

        db = build_demo_db()
        source = RelationalSource("s", db)
        stmts = [parse(text) for text in (
            "SELECT id, cust_id, total, status FROM orders WHERE total > 100",
            "SELECT status, total FROM orders",
            "SELECT cust_id FROM orders WHERE status = 'open' AND total > 50",
        )]
        wrong, rounds = [], 6
        barrier = threading.Barrier(9, timeout=30)

        def worker(offset):
            for _ in range(rounds):
                barrier.wait()
                for i in range(12):
                    stmt = stmts[(offset + i) % len(stmts)]
                    relation = source.execute_select(stmt)
                    if relation.size_bytes() != sum(map(row_size, relation.rows)):
                        wrong.append(("size", stmt))
                    for position, vouch in enumerate(relation.rows.kinds):
                        if not {type(row[position]) for row in relation.rows} <= vouch:
                            wrong.append(("vouch", stmt, position))
                    db.stats_for("orders")
                barrier.wait()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for round_ in range(rounds):
                barrier.wait()  # the workers read ...
                barrier.wait()  # ... and rest while the table changes kinds
                db.table("orders").insert((9000 + round_, 3, None if round_ % 2 else 120.5, None))
                assert db.stats_for("orders").row_count == len(db.table("orders"))
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong


class TestSourceChecksStayPerCall:
    def test_access_revoked_after_the_first_answer(self):
        source = RelationalSource("s", build_demo_db())
        stmt = parse(POINT_Q)
        assert len(source.execute_select(stmt)) == 1
        source.capabilities.allows_external_queries = False
        with pytest.raises(SourceError, match="does not admit external queries"):
            source.execute_select(stmt)
        assert len(source.query_log) == 1

    def test_non_pushable_raises_every_call_and_is_never_logged(self):
        source = RelationalSource("s", build_demo_db(), dialect=GENERIC)
        stmt = parse("SELECT name FROM customers WHERE name LIKE 'cust0%'")
        for _ in range(3):
            with pytest.raises(CapabilityError, match="cannot run"):
                source.execute_select(stmt)
        assert not source.query_log
        assert len(source._prepared) == 0

    def test_every_call_is_logged_and_charged(self):
        source = RelationalSource("s", build_demo_db())
        stmt = parse(POINT_Q)
        first, second = answer(source, stmt), answer(source, stmt)
        assert first == second
        assert len(first[1]) == 1 and len(first[2]) == 1

    def test_faulty_source_sees_one_execute_per_attempt(self):
        clock = SimClock()
        injector = FaultInjector(seed=3, clock=clock)
        catalog = build_catalog(injector=injector)
        engine = FederatedEngine(
            catalog,
            EngineConfig(clock=clock, resilience=ResiliencePolicy(max_attempts=3)),
        )
        crm = catalog.sources["crm"]
        engine.query(POINT_Q)
        assert (injector.calls("crm"), len(crm.query_log)) == (1, 1)
        injector.script("crm", Transient(1))
        engine.query(POINT_Q)  # one failed attempt, one retry
        assert (injector.calls("crm"), len(crm.query_log)) == (3, 2)
        engine.query(POINT_Q)
        assert (injector.calls("crm"), len(crm.query_log)) == (4, 3)

    def test_replica_gets_the_renamed_statement_on_every_failover(self):
        clock = SimClock()
        injector = FaultInjector(seed=3, clock=clock)
        catalog = build_catalog(injector=injector, with_replicas=True)
        engine = FederatedEngine(
            catalog,
            EngineConfig(clock=clock, resilience=ResiliencePolicy(max_attempts=1)),
        )
        injector.script("crm", Outage())
        rows = [engine.query(POINT_Q).relation.rows for _ in range(2)]
        assert rows[0] == rows[1] == [("cust3",)]
        replica_log = catalog.sources["crm_standby"].query_log
        assert len(replica_log) == 2
        assert all("customers_v2" in text for text in replica_log)


# -- the parsed-text memo ---------------------------------------------------------


class TestParsedTextMemo:
    def test_a_repeated_text_is_not_parsed_again(self, monkeypatch):
        import repro.sql.parser as parser

        parsed = []
        monkeypatch.setattr(
            parser, "parse_with_origins", lambda text: parsed.append(text) or parse_with_origins(text)
        )
        text = "SELECT name FROM customers WHERE nickname = 31337"
        first = canonical_statement(text)
        second = canonical_statement(text)
        assert parsed == [text]
        assert second[0] is first[0] and second[1] == first[1]
        assert first[1] == "SELECT name FROM customers WHERE (nickname = 31337)"
        # ... and a new text of a learned template is never parsed at all
        other = canonical_statement(text.replace("31337", "8"))
        assert parsed == [text]
        assert other == (parse(text.replace("31337", "8")), first[1].replace("31337", "8"))

    def test_parse_error_is_raised_with_its_position_every_time(self):
        text = "SELECT name\nFROM customers WHERE"
        seen = []
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                canonical_statement(text)
            seen.append((str(err.value), err.value.line, err.value.column))
        assert len(set(seen)) == 1
        assert seen[0][1] == 2 and seen[0][2] is not None
        assert text not in keys._PARSED

    def test_dml_text_is_a_plan_error_every_time(self):
        engine = build_engine()
        text = "DELETE FROM customers WHERE id = 1"
        for _ in range(3):
            with pytest.raises(PlanError, match="must be SELECT"):
                engine.query(text)
        assert text not in keys._PARSED
        assert len(engine.catalog.sources["crm"].db.table("customers")) == 8

    def test_two_spellings_share_a_plan_cache_entry(self):
        engine = build_engine()
        first = engine.query("SELECT name FROM customers WHERE id = 2")
        second = engine.query("select name\n  from customers where id=2")
        third = engine.query("select name\n  from customers where id=2")
        assert first.metrics.plan_cache_hits == 0
        assert second.metrics.plan_cache_hits == third.metrics.plan_cache_hits == 1
        assert first.relation.rows == second.relation.rows == third.relation.rows

    def test_never_repeating_texts_stay_bounded(self):
        for i in range(keys._PARSED.max_entries + 50):
            canonical_statement(f"SELECT name FROM customers WHERE id = {i}")
        assert len(keys._PARSED) == keys._PARSED.max_entries


# -- component queries run on the caller's thread -----------------------------------


class TestCallerThread:
    def test_multi_fetch_queries_start_no_thread(self):
        baseline = threading.active_count()
        engine = build_engine(parallel_workers=4)
        first = engine.query(JOIN_Q)
        assert len(first.plan.fetches) > 1
        for _ in range(200):
            assert engine.query(JOIN_Q).relation.rows == first.relation.rows
        assert threading.active_count() == baseline

    def test_a_failed_query_leaves_the_engine_usable(self):
        clock = SimClock()
        injector = FaultInjector(seed=1, clock=clock)
        engine = FederatedEngine(
            build_catalog(injector=injector),
            EngineConfig(parallel_workers=4, clock=clock),
        )
        expected = engine.query(JOIN_Q).relation.rows
        injector.script("crm", Transient(1))
        with pytest.raises(SourceError, match="crm"):
            engine.query(JOIN_Q)
        assert engine.query(JOIN_Q).relation.rows == expected
