"""A source's scan, filter, pick and ship are columnar.

A full scan hands out its table's `Mirror` (per-version columns and their
kinds), a filter's passes read the guarded column there and keep a
selection, the root pick gathers only the shipped columns into `Columns`,
and `Relation` builds the rows from them the first time `rows` is read.
Rows are held against stdlib `sqlite3` (`tests/sqlite_reference.py`);
everything else is counted, never timed.
"""

from __future__ import annotations

import datetime
import importlib.util
import pathlib
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.common import types
from repro.common.relation import Columns, Gathered, Relation
from repro.common.schema import Column, RelSchema
from repro.common.types import DataType as T
from repro.common.types import row_size
from repro.engine import LocalEngine, rewrite
from repro.engine.physical import SeqScan
from repro.federation import EngineConfig, FederatedEngine
from repro.netsim import SimClock
from repro.sources import RelationalSource
from repro.sql.parser import parse
from repro.storage import Database, Table
from tests.sqlite_reference import SqliteReference, row_mismatch

_WORKLOADS = pathlib.Path(__file__).parent.parent / "benchmarks/wallclock/workloads.py"


def _lookup_templates() -> dict:
    spec = importlib.util.spec_from_file_location("_columnar_wallclock_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.LOOKUP_TEMPLATES


def _engine(fixture) -> FederatedEngine:
    return FederatedEngine(fixture.catalog(), EngineConfig(clock=SimClock()))


# --- answers ------------------------------------------------------------------


@pytest.fixture(scope="module", params=[1, 4, 16], ids=["scale1", "scale4", "scale16"])
def enterprise(request):
    fixture = build_enterprise(BenchConfig(scale=request.param, seed=42))
    return fixture, _engine(fixture), SqliteReference(fixture)


def test_the_mix_and_the_lookups_equal_sqlite(enterprise):
    fixture, engine, reference = enterprise
    statements = list(QUERIES.values())
    if fixture.config.scale == 1:
        statements += [t.format(id=i) for i in (1, 7, 150) for t in _lookup_templates().values()]
    for _ in range(2):  # cold, then from the prepared trees
        for sql in statements:
            assert row_mismatch(engine.query(sql).relation.rows, reference.query(sql)) is None, sql


def test_an_order_by_of_two_same_named_columns_sorts_on_each():
    """`ORDER BY a.id, b.id` over `SELECT a.id, b.id`: both output columns are
    named `id`, and each key sorts on the output column its qualified
    reference names - at a source's engine and at the hub."""
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    reference = SqliteReference(fixture)
    for sql in (
        "SELECT a.id, b.id FROM customers a JOIN customers b ON a.id = b.id ORDER BY a.id, b.id",
        "SELECT a.id, b.city FROM customers a JOIN customers b ON a.id = b.id "
        "ORDER BY b.city DESC, a.id",
        "SELECT b.id, a.id FROM customers a JOIN customers b ON a.city = b.city "
        "WHERE a.id < 20 ORDER BY a.id DESC, b.id",
    ):
        expected = reference.query(sql)
        for rows in (
            _engine(fixture).query(sql).relation.rows,
            LocalEngine(fixture.crm).query(sql).rows,
        ):
            assert row_mismatch(rows, expected) is None, sql
            assert list(rows) == expected, sql  # in sqlite's order, not only as a bag


# --- edge tables --------------------------------------------------------------

NOON = datetime.datetime(2005, 6, 14, 12)


def edge_database() -> Database:
    """Tombstones, NULLs, non-ASCII text and a `datetime` in a DATE column."""
    db = Database("edges")
    rows = [
        (i, None if i % 4 == 0 else f"naïve-{i}-日本", None if i % 5 == 0 else i / 8,
         NOON if i % 7 == 0 else datetime.date(2005, 6, 1 + i % 28))
        for i in range(200)
    ]
    table = db.add_table(Table.build("t", [("id", T.INT), ("s", T.STRING), ("f", T.FLOAT), ("d", T.DATE)], rows))
    table.delete_where(lambda row: row[0] % 3 == 1)
    plain = db.add_table(Table.build("p", [("id", T.INT), ("s", T.STRING)], [(i, f"é{i}") for i in range(50)]))
    plain.delete_where(lambda row: row[0] % 2 == 0)
    return db


def counted_row_size(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(types, "row_size", lambda row: calls.append(1) or row_size(row))
    return calls


EDGE_STATEMENTS = [
    # (statement, the rows it keeps, and whether a `datetime` ships)
    ("SELECT s, id FROM t WHERE id > 20", lambda r: r[0] > 20, False),
    ("SELECT id, s, f FROM t WHERE f > 5", lambda r: r[2] is not None and r[2] > 5, False),
    ("SELECT id, d FROM t WHERE id < 150", lambda r: r[0] < 150, True),
    ("SELECT s, f FROM t", lambda r: True, False),
    ("SELECT id, s FROM t WHERE s = 'naïve-6-日本' AND id > 1", lambda r: r[1] == "naïve-6-日本", False),
    ("SELECT s FROM p WHERE id < 11", lambda r: r[0] < 11, False),
]


@pytest.mark.parametrize("sql, keeps, dated", EDGE_STATEMENTS)
def test_an_edge_table_ships_its_live_rows_and_their_bytes(sql, keeps, dated, monkeypatch):
    db = edge_database()
    source = RelationalSource("edges", db)
    stmt = parse(sql)
    table = db.table(stmt.from_tables[0].name)
    names = [item.expr.name for item in stmt.items]
    positions = [table.schema.index_of(name) for name in names]
    expected = [tuple(row[p] for p in positions) for row in table.rows() if keeps(row)]
    calls = counted_row_size(monkeypatch)
    for _ in range(2):
        relation = source.execute_select(stmt)
        assert type(relation._columns) is Columns and relation._rows is None  # shipped as columns
        del calls[:]
        size = relation.size_bytes()
        assert bool(calls) == dated  # only a `datetime` takes the per-row fallback
        assert relation.rows == expected
        assert size == sum(map(row_size, expected))


def test_a_write_between_two_scans_rebuilds_the_mirror_and_never_serves_the_old_vouch():
    table = Table.build("t", [("id", T.INT), ("v", T.ANY)], [(i, i) for i in range(10)])
    derived, memo = [], Table.derived

    def watched(self, key, derive):
        return memo(self, key, lambda: derived.append(key) or derive())

    Table.derived = watched
    try:
        scan = SeqScan(table, "t")
        before = scan.run()
        assert before.kinds[1] == {int} and before.columns.column(1) == list(range(10))
        assert derived == [1]
        assert scan.run().kinds[1] == {int} and derived == [1]  # kept for the version
        table.insert((10, "ten"))
        assert before.kinds[1] is None and before.columns.column(1) is None
        assert before.kinds[1] is None and before.columns.column(1) is None
        after = scan.run()
        assert after.kinds[1] == {int, str} and after.columns.column(1) == [*range(10), "ten"]
        assert derived == [1, 1]  # once more, for the new version only
        table.delete_where(lambda row: row[0] < 5)
        assert after.kinds[1] is None
        assert SeqScan(table, "t").run().columns.column(1) == [5, 6, 7, 8, 9, "ten"]
    finally:
        Table.derived = memo
    # through a source: the write is seen, and its vouch with it
    db = Database("w")
    db.add_table(Table.build("t", [("id", T.INT), ("v", T.ANY)], [(i, i) for i in range(10)]))
    source = RelationalSource("w", db)
    stmt = parse("SELECT v FROM t WHERE id > 3")
    first = source.execute_select(stmt)
    db.table("t").insert((11, 2.5))
    second = source.execute_select(stmt)
    assert first.rows == [(v,) for v in range(4, 10)] and first.rows.kinds == (frozenset({int}),)
    assert second.rows == first.rows + [(2.5,)] and second.rows.kinds == (frozenset({int, float}),)


def test_four_threads_read_the_rows_of_one_shared_relation():
    """A fetch-cache entry is one `Relation` read by every caller thread: each
    reader gets finished rows, equal to the others', and the relation ends
    holding one of them."""
    fixture = build_enterprise(BenchConfig(scale=4, seed=42))
    source = fixture.catalog().source_of("orders")
    stmt = parse("SELECT cust_id, total, status FROM orders WHERE total > 100")
    expected = list(source.execute_select(stmt).rows)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = source.execute_select(stmt)
            barrier = threading.Barrier(4, timeout=30)
            seen: list = []

            def reader():
                barrier.wait()
                seen.append(shared.rows)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 4 and all(rows == expected for rows in seen)
            assert any(shared.rows is rows for rows in seen) and len(shared) == len(expected)
    finally:
        sys.setswitchinterval(interval)


# --- the wire -----------------------------------------------------------------

values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False, width=32),
    st.text(max_size=4), st.sampled_from([datetime.date(2005, 6, 14), NOON, "naïve", "\ud800"]),
)


@st.composite
def held_columns(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[values] * width), max_size=12))
    columns = [[row[p] for row in rows] for p in range(width)]
    vouches = []
    for column in columns:
        exact = frozenset(map(type, column))
        vouches.append(draw(st.sampled_from([exact, None])))
    return rows, columns, tuple(vouches)


def size_outcome(thunk):
    try:
        return ("ok", thunk())
    except Exception as exc:
        return ("raise", type(exc), str(exc))


@given(case=held_columns())
@example(case=([(1, "é"), (2, None)], [[1, 2], ["é", None]], (frozenset({int}), frozenset({str, type(None)}))))
@example(case=([(NOON,), (datetime.date(2005, 6, 14),)], [[NOON, datetime.date(2005, 6, 14)]], (None,)))
@example(case=([(1, "\ud800")], [[1], ["\ud800"]], (frozenset({int}), frozenset({str}))))
@settings(max_examples=300, deadline=None)
def test_a_relation_held_as_columns_is_priced_as_its_rows(case):
    rows, columns, kinds = case
    schema = RelSchema(Column(f"c{i}", T.ANY) for i in range(len(columns)))
    relation = Relation.adopt(schema, Columns(Gathered(columns), kinds, len(rows)))
    assert size_outcome(relation.size_bytes) == size_outcome(lambda: sum(map(row_size, rows)))
    assert relation.rows == rows


# --- counted ------------------------------------------------------------------

PLAIN = ["q2_filter_scan", "q4_crm_sales_join", "q7_support_risk", "q8_unpaid_invoices"]


@pytest.mark.parametrize("scale", [1, 4])
def test_a_plain_fetch_builds_its_rows_once_where_they_are_read(scale, monkeypatch):
    """The plain fetches of q2, q4, q7 and q8 leave their source as columns -
    no row was picked there - and each builds its rows once, when the hub
    reads them."""
    fixture = build_enterprise(BenchConfig(scale=scale, seed=42))
    engine = _engine(fixture)
    for name in PLAIN:  # cold: plans made
        engine.query(QUERIES[name])
    shipped, builds, alive = [], {}, []
    execute, rows = RelationalSource.execute_select, Columns.rows

    def shipping(source, stmt, metrics=None):
        relation = execute(source, stmt, metrics)
        shipped.append((str(stmt), relation._rows is None and type(relation._columns) is Columns))
        return relation

    def building(columns):
        if columns._rows is None:
            alive.append(columns)  # no other batch may take its id
            builds[id(columns)] = builds.get(id(columns), 0) + 1
        return rows(columns)

    monkeypatch.setattr(RelationalSource, "execute_select", shipping)
    monkeypatch.setattr(Columns, "rows", building)
    for name in PLAIN:
        engine.query(QUERIES[name])
    plain = [stmt for stmt, _ in shipped if " WHERE " in stmt and " GROUP BY " not in stmt]
    assert len(plain) >= 4, shipped
    assert all(columnar for stmt, columnar in shipped if stmt in plain), shipped
    assert builds and max(builds.values()) == 1


def test_an_aggregate_free_statement_is_never_walked_for_eager_aggregation():
    """A source re-plans a statement after every write to a table it reads:
    without a GROUP BY over a join there is nothing to pre-aggregate, and the
    rule is not entered at all."""
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    engine = LocalEngine(fixture.sales)
    code = rewrite.eager_aggregate.__code__
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            entered.append(1)

    def frames(sql):
        del entered[:]
        sys.setprofile(profile)
        try:
            engine.logical_plan(sql)
        finally:
            sys.setprofile(None)
        return len(entered)

    for sql in (
        "SELECT id, total FROM orders WHERE status = 'open' AND total > 500",
        "SELECT o.id, p.category FROM orders o JOIN products p ON p.id = o.product_id",
        "SELECT status, COUNT(*) AS n FROM orders GROUP BY status",
    ):
        assert frames(sql) == 0, sql
    grouped = "SELECT p.category, SUM(o.quantity) AS units FROM products p JOIN orders o ON p.id = o.product_id GROUP BY p.category"
    assert frames(grouped) > 0
    assert "Aggregate(by [o.product_id]" in engine.logical_plan(grouped).pretty()
