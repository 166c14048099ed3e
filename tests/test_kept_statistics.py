"""Statistics a write keeps: what `Table.stats` reads off a `Tally`.

- `TableStats.collect` orders a column by the set of its exact kinds, so a
  `date` beside a `datetime` no longer raises, and an `ANY` column mixing
  `int` and `bool` is unorderable whichever comes first.
- Counting oracle (calls counted with `sys.setprofile`, never timed): after
  warm-up, a `dashboard_rw` chunk - one-row inserts into `orders` and
  `tickets`, each followed by planning that reads their statistics - builds
  no tally and no column tally, and its statistics still equal a new
  `collect` over the live rows; a `mix_s1` pass, which writes nothing,
  leaves no tally on any table.
- A transaction's writes go through the table's write paths: one `version`
  per statement, statistics kept, a rollback restoring them - also every
  row a statement changed before it failed.
- Eight threads reading `stats()` while one inserts each read a snapshot
  that adds up, and a snapshot a write overtook is not kept.
"""

from __future__ import annotations

import datetime
import gc
import importlib.util
import pathlib
import sys
import threading
import time

import pytest

from repro.common.errors import IntegrityError, TypeMismatchError
from repro.common.types import DataType as T
from repro.storage import Database, Table, TableStats
from repro.storage.stats import ColumnTally, Tally

_WALLCLOCK = pathlib.Path(__file__).parent.parent / "benchmarks/wallclock"
DAY = datetime.date(2005, 6, 14)
NOON = datetime.datetime(2005, 6, 14, 12)


def _workloads():
    spec = importlib.util.spec_from_file_location("_kept_stats_workloads", _WALLCLOCK / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _tallies_built(run) -> int:
    """How many `Tally` / `ColumnTally` builds - each a pass over every
    live row - `run()` makes."""
    builds = {Tally.__init__.__code__, ColumnTally.__init__.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in builds:
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


def _table(*columns) -> Table:
    return Table.build("t", [("id", T.INT), *columns], primary_key=["id"])


def _equal_to_collect(table: Table) -> None:
    expected = TableStats.collect(table.schema, table.live_rows())
    assert table.stats() == expected
    assert repr(table.stats()) == repr(expected)


# -- ordering by the set of kinds -------------------------------------------------


@pytest.mark.parametrize("days", [[DAY, NOON], [NOON, DAY]])
def test_a_date_beside_a_datetime_is_counted_not_sorted(days):
    table = _table(("d", T.DATE))
    table.insert_many((i, day) for i, day in enumerate(days))
    stats = table.stats()  # sorting them raised when the date came first
    column = stats.column("d")
    assert (column.distinct, column.min_value, column.histogram) == (2, None, None)
    assert stats == TableStats.collect(table.schema, list(reversed(table.live_rows())))


@pytest.mark.parametrize("values", [[1, True], [True, 1]])
def test_an_any_column_of_int_and_bool_is_unorderable_whichever_comes_first(values):
    table = _table(("v", T.ANY))
    table.insert_many(enumerate(values))
    assert table.stats().column("v").histogram is None


def test_an_int_and_float_column_still_orders():
    table = _table(("v", T.ANY))
    table.insert_many(enumerate([2.5, 1, None]))
    column = table.stats().column("v")
    assert (column.min_value, column.max_value, column.histogram.total) == (1, 2.5, 2)


# -- writes keep the tally --------------------------------------------------------


def test_a_table_keeps_a_tally_only_once_written_after_a_read():
    table = _table(("v", T.INT))
    table.insert_many((i, i % 3) for i in range(20))
    table.stats()
    assert table._tally is None  # read, never written since: nothing kept
    table.insert((20, 7))
    table.stats()
    assert table._tally is not None
    assert _tallies_built(lambda: [(table.insert((i, i)), table.stats()) for i in range(21, 40)]) == 0
    _equal_to_collect(table)
    table.vacuum()
    assert table._tally is None


def test_updates_deletes_and_rollbacks_keep_the_statistics_exact():
    db = Database("kept")
    table = db.create_table("t", [("id", T.INT), ("n", T.INT), ("x", T.FLOAT), ("s", T.STRING)], primary_key=["id"])
    table.insert_many((i, i % 4, i / 3, "abc"[i % 3] if i % 5 else None) for i in range(30))
    table.stats()
    table.insert((30, 1, 0.5, "z"))
    assert table.stats() is table.stats()  # kept from here on
    assert _tallies_built(lambda: table.update_where(lambda row: row[1] == 2, lambda row: (row[0], 9, row[2], "q"))) == 0
    _equal_to_collect(table)
    assert table.delete_where(lambda row: row[1] == 1) == 9
    _equal_to_collect(table)
    before, version = table.stats(), table.version
    with pytest.raises(RuntimeError):
        with db.begin() as txn:
            txn.insert("t", (40, 3, 1.0, "w"))
            assert txn.update_where("t", lambda row: row[1] == 3, lambda row: (row[0], 0, 2.0, None)) == 8
            assert txn.delete_where("t", lambda row: row[1] == 0) == 16
            _equal_to_collect(table)
            raise RuntimeError("roll back")
    # one version per statement, one per slot put back
    assert table.version == version + 3 + 1 + 8 + 16
    assert table.stats() == before
    _equal_to_collect(table)


class Refused(Exception):
    pass


def _second_refused(row):
    """An updater that refuses the second row it is handed."""
    _second_refused.handed += 1
    if _second_refused.handed == 2:
        raise Refused
    return (row[0], row[1] + 100)


@pytest.mark.parametrize(
    "updater, error",
    [
        (_second_refused, Refused),
        (lambda row: (row[0], "text" if row[0] == 3 else 0), TypeMismatchError),  # `_coerce_row`
        (lambda row: (1 if row[0] == 3 else row[0], row[1]), IntegrityError),  # `_reinsert_at`
    ],
)
def test_a_transaction_write_that_fails_part_way_is_rolled_back_whole(updater, error):
    db = Database("kept")
    table = db.create_table("t", [("id", T.INT), ("n", T.INT)], primary_key=["id"])
    table.insert_many((i, i % 2) for i in range(6))
    table.stats()
    table.insert((6, 0))
    before, version = table.live_rows(), table.version
    assert table.stats() is table.stats()  # kept, and memoized at `version`
    _second_refused.handed = 0
    with pytest.raises(error):
        with db.begin() as txn:
            txn.update_where("t", lambda row: row[0] in (1, 3, 5), updater)
    assert table.live_rows() == before  # row 1, changed before the failure, is back
    assert table.version > version
    _equal_to_collect(table)


def test_a_table_write_that_fails_part_way_moves_version():
    table = _table(("n", T.INT))
    table.insert_many((i, i) for i in range(4))
    stale = table.stats()
    _second_refused.handed = 0
    with pytest.raises(Refused):
        table.update_where(lambda row: True, _second_refused)
    assert table.row_by_id(0) == (0, 100)
    assert table.stats() is not stale
    _equal_to_collect(table)


def test_a_snapshot_read_while_a_statement_runs_is_not_kept():
    table = _table(("n", T.INT))
    table.insert_many((i, i % 3) for i in range(9))
    seen = []
    assert table.delete_where(lambda row: seen.append(table.stats()) or row[1] == 0) == 3
    assert [stats.row_count for stats in seen] == [9, 8, 8, 8, 7, 7, 7, 6, 6]
    assert len(set(map(id, seen))) == len(seen)  # each derived anew, none kept
    _equal_to_collect(table)


def test_values_of_one_kind_that_do_not_compare_are_unorderable():
    column = ColumnTally([1j, None, 2j]).stats("v", 3)
    assert (column.distinct, column.min_value, column.histogram) == (2, None, None)


def test_values_of_one_kind_that_do_not_compare_never_fail_a_write():
    table = _table(("v", T.ANY))
    for row in ((0, 1j), (1, None), (2, 2j)):  # complex numbers hash but do not sort
        table.insert(row)
        with pytest.raises(TypeMismatchError):  # as `collect` does: they have no wire size
            table.stats()
    assert table._tally is not None
    table.delete_where(lambda row: True)
    table.insert((2, 3))
    _equal_to_collect(table)


def test_a_statistic_a_write_overtook_is_not_kept():
    table = _table(("v", T.INT))
    table.insert((0, 0))
    derived = table.derived("overtaken", lambda: table.insert((1, 1)))
    assert derived == 1 and "overtaken" not in table._derived[1]


# -- the benchmark's workloads ------------------------------------------------------


def _run(stack, steps) -> None:
    for step in steps:
        if step.sql is None:
            stack.write(step.name)
        else:
            stack.engine.query(step.sql)


def test_a_warm_dashboard_chunk_builds_no_tally():
    workload = _workloads().WORKLOADS["dashboard_rw"](seed=3)
    stack = workload.build()
    for index in range(workload.warmup_chunks):
        _run(stack, workload.steps(index))
    steps = workload.steps(workload.warmup_chunks)
    assert sum(step.sql is None for step in steps) == 2
    assert _tallies_built(lambda: _run(stack, steps)) == 0
    for source, name in ((stack.fixture.sales, "orders"), (stack.fixture.support, "tickets")):
        table = source.table(name)
        assert table._tally is not None
        _equal_to_collect(table)


def test_a_mix_pass_keeps_no_tally():
    workload = _workloads().WORKLOADS["mix_s1"](seed=3)
    gc.collect()
    before = set(map(id, _tables()))
    stack = workload.build()
    _run(stack, workload.steps(0))
    tables = [table for table in _tables() if id(table) not in before]
    assert stack.fixture.sales.table("orders") in tables
    assert [table.name for table in tables if table._tally is not None] == []


def _tables() -> list:
    return [table for table in gc.get_objects() if isinstance(table, Table)]


# -- threads ----------------------------------------------------------------------


def test_readers_beside_a_writer_read_snapshots_that_add_up():
    table = _table(("n", T.INT), ("x", T.FLOAT), ("s", T.STRING))
    table.insert_many((i, i % 7 or None, i / 4, "s%d" % (i % 11)) for i in range(200))
    table.stats()
    table.insert((200, None, 0.0, None))
    table.stats()  # kept from here on
    snapshots: dict = {}  # id -> each snapshot read
    failures: list = []
    reading, written = threading.Semaphore(0), threading.Event()

    def reader():
        try:
            reading.release()
            while not written.is_set():
                stats = table.stats()
                snapshots[id(stats)] = stats
        except Exception as exc:  # reported below
            failures.append(exc)

    def writer():
        try:
            for _ in range(8):  # every reader is reading
                reading.acquire(timeout=60)
            for i in range(201, 501):
                table.insert((i, None if i % 3 else i, i / 4, "w"))
                time.sleep(0)  # let the readers run
        finally:
            written.set()

    threads = [threading.Thread(target=reader) for _ in range(8)] + [threading.Thread(target=writer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures and len(table) == 501
    assert len({stats.row_count for stats in snapshots.values()}) > 1, "no reader overlapped the writer"
    for stats in snapshots.values():
        for column in stats.columns.values():
            nulls = round(column.null_fraction * stats.row_count)
            assert column.histogram.total + nulls == stats.row_count
    _equal_to_collect(table)
