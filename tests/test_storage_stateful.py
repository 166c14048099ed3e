"""Stateful property testing of the storage table against a model.

Hypothesis drives random insert/delete/update/vacuum sequences against a
`Table` while a plain dict models the expected contents; invariants checked
after every step: row multiset, primary-key map, live count, and index
consistency (hash and sorted).

A second machine holds what a table remembers per version - column kinds,
statistics, the vouch a scan took - to a sweep of the live rows after any
sequence of writes, `clear`, `vacuum` and rolled-back transactions. The
statistics writes keep (`Table.stats`) and those `TableStats.collect` reads
off a new tally must equal, field by field and in `repr`, what the sweep
`collect` was before they were kept computes (`reference_collect`), over
NULLs, NaN, -0.0, a `date` beside a `datetime`, unhashable values and values
`row_size` cannot price.
"""

import datetime
import math

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.common.errors import IntegrityError
from repro.common.types import DataType as T
from repro.common.types import row_size
from repro.engine.physical import IndexEqScan, SeqScan
from repro.storage import ColumnStats, Database, Table, TableStats
from repro.storage.stats import _equi_depth
from repro.storage.table import Mirror

KEYS = st.integers(min_value=0, max_value=30)
VALUES = st.sampled_from(["a", "b", "c", "d"])
SCORES = st.integers(min_value=0, max_value=100)


class TableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = Table.build(
            "t",
            [("id", T.INT), ("tag", T.STRING), ("score", T.INT)],
            primary_key=["id"],
        )
        self.table.create_index("tag")
        self.table.create_index("score", sorted=True)
        self.model: dict = {}  # id -> (id, tag, score)

    @rule(key=KEYS, tag=VALUES, score=SCORES)
    def insert(self, key, tag, score):
        row = (key, tag, score)
        if key in self.model:
            try:
                self.table.insert(row)
                raise AssertionError("duplicate PK accepted")
            except IntegrityError:
                return
        else:
            self.table.insert(row)
            self.model[key] = row

    @rule(key=KEYS)
    def delete(self, key):
        removed = self.table.delete_where(lambda row: row[0] == key)
        expected = 1 if key in self.model else 0
        assert removed == expected
        self.model.pop(key, None)

    @rule(key=KEYS, score=SCORES)
    def update_score(self, key, score):
        updated = self.table.update_where(
            lambda row: row[0] == key,
            lambda row: (row[0], row[1], score),
        )
        if key in self.model:
            assert updated == 1
            old = self.model[key]
            self.model[key] = (old[0], old[1], score)
        else:
            assert updated == 0

    @rule()
    def vacuum(self):
        self.table.vacuum()

    @invariant()
    def contents_match_model(self):
        assert sorted(self.table.rows()) == sorted(self.model.values())
        assert len(self.table) == len(self.model)

    @invariant()
    def primary_key_map_consistent(self):
        for key, row in self.model.items():
            assert self.table.get(key) == row

    @invariant()
    def hash_index_consistent(self):
        for tag in ("a", "b", "c", "d"):
            expected = sorted(r for r in self.model.values() if r[1] == tag)
            assert sorted(self.table.lookup("tag", tag)) == expected

    @invariant()
    def sorted_index_consistent(self):
        index = self.table.index_on("score")
        rids = index.range()
        rows = [self.table.row_by_id(rid) for rid in rids]
        assert all(row is not None for row in rows)
        scores = [row[2] for row in rows]
        assert scores == sorted(scores)
        assert sorted(rows) == sorted(self.model.values())


TableMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestTableStateMachine = TableMachine.TestCase


class Unhashable(str):
    """A string `row_size` prices but no `Counter` can count."""

    __hash__ = None  # type: ignore[assignment]


class Refused(Exception):
    pass


DAY = datetime.date(2005, 6, 14)
NAN = math.nan
NUMBERS = st.one_of(st.none(), st.integers(0, 3))
#: a `datetime` is a DATE too, and its own exact kind
DAYS = st.sampled_from([None, DAY, datetime.datetime(2005, 6, 14, 12), datetime.datetime(2005, 6, 15)])
ANYTHING = st.sampled_from([None, 1, 2.5, "x", True, DAY, NAN, -0.0, 0.0, Unhashable("u")])
FLOATS = st.sampled_from([None, 0.0, -0.0, 1.5, NAN])
WIDTH = 5


def reference_collect(schema, rows) -> TableStats:
    """`TableStats.collect` before writes kept statistics: a sweep of the
    rows. One change: a column orders by the set of its exact kinds, not by
    its first value's type (which sorted a `date` beside a later `datetime`,
    and raised)."""
    stats = TableStats(row_count=len(rows))
    if rows:
        sampled = rows[:: max(len(rows) // 1000, 1)] or rows
        stats.avg_row_bytes = max(sum(row_size(row) for row in sampled) // len(sampled), 1)
    for position, column in enumerate(schema):
        values = [row[position] for row in rows]
        stats.columns[column.name.lower()] = reference_column(column.name, values)
    return stats


def reference_column(name: str, values: list) -> ColumnStats:
    total = len(values)
    if total == 0:
        return ColumnStats(name=name)
    non_null = [value for value in values if value is not None]
    null_fraction = 1.0 - len(non_null) / total
    try:
        distinct = len(set(non_null))
    except TypeError:
        distinct = max(len(non_null) // 2, 1)
    stats = ColumnStats(name=name, null_fraction=null_fraction, distinct=max(distinct, 1))
    kinds = set(map(type, non_null))
    if non_null and (kinds <= {int, float} or (len(kinds) == 1 and bool not in kinds)):
        ordered = sorted(non_null)
        stats.min_value = ordered[0]
        stats.max_value = ordered[-1]
        stats.histogram = _equi_depth(ordered)
    return stats


def outcome(derive):
    """What `derive()` returns, or the type of what it raises."""
    try:
        return derive()
    except Exception as exc:  # compared below: both sides must raise alike
        return type(exc)


def assert_same_stats(found, expected):
    assert found == expected
    assert repr(found) == repr(expected)  # -0.0 against 0.0, 1 against 1.0


def mirror(table):
    return Mirror(table, table.version)


def kinds_of(rows, position):
    return {type(row[position]) for row in rows}


class KindsMachine(RuleBasedStateMachine):
    """`Mirror` kinds / `stats` are read at arbitrary points (so a memo exists
    to go stale), scans are kept with their vouch across later writes."""

    def __init__(self):
        super().__init__()
        self.db = Database("kinds")
        self.table = self.db.create_table(
            "t", [("id", T.INT), ("n", T.INT), ("d", T.DATE), ("v", T.ANY), ("x", T.FLOAT)]
        )
        self.table.create_index("n")
        self.next_id = 0
        self.scans: list = []

    def row(self, n, d, v, x=None):
        self.next_id += 1
        return (self.next_id, n, d, v, x)

    @rule(n=NUMBERS, d=DAYS, v=ANYTHING, x=FLOATS)
    def insert(self, n, d, v, x):
        self.table.insert(self.row(n, d, v, x))

    @rule(n=NUMBERS)
    def insert_unpriced(self, n):
        """A list: unhashable, and `row_size` cannot price it."""
        self.table.insert(self.row(n, None, [n]))

    @rule(n=NUMBERS, v=ANYTHING, x=FLOATS)
    def update(self, n, v, x):
        self.table.update_where(lambda row: row[1] == n, lambda row: row[:3] + (v, x))

    @rule(n=NUMBERS)
    def delete(self, n):
        self.table.delete_where(lambda row: row[1] == n)

    @rule()
    def clear(self):
        self.table.clear()

    @rule()
    def vacuum(self):
        self.table.vacuum()

    @rule(n=NUMBERS, d=DAYS, v=ANYTHING, drop=NUMBERS)
    def rolled_back(self, n, d, v, drop):
        before = self.table.live_rows()
        version = self.table.version
        txn = self.db.begin()
        txn.insert("t", self.row(n, d, v))
        txn.update_where("t", lambda row: row[1] == drop, lambda row: row[:3] + (v, 1.5))
        txn.delete_where("t", lambda row: row[1] == n)
        self.read(position=3)  # a memo of the uncommitted state
        txn.rollback()
        assert self.table.live_rows() == before  # in heap order, slot for slot
        assert self.table.version > version

    @rule(n=NUMBERS, v=ANYTHING, in_transaction=st.booleans())
    def failed_update(self, n, v, in_transaction):
        """An update refused at the second row it reaches: in a
        transaction, rolled back whole; alone, its first row stays."""
        before = self.table.live_rows()
        handed = []

        def updater(row):
            handed.append(row)
            if len(handed) == 2:
                raise Refused
            return row[:3] + (v, 1.5)

        try:
            if in_transaction:
                with self.db.begin() as txn:
                    txn.update_where("t", lambda row: row[1] == n, updater)
            else:
                self.table.update_where(lambda row: row[1] == n, updater)
        except Refused:
            if in_transaction:
                assert self.table.live_rows() == before

    @rule(position=st.integers(0, WIDTH - 1))
    def read(self, position):
        assert mirror(self.table)[position] == kinds_of(self.table.live_rows(), position)
        assert_same_stats(outcome(self.table.stats), outcome(lambda: reference_collect(self.table.schema, self.table.live_rows())))

    @rule(n=NUMBERS, resolve=st.booleans())
    def scan(self, n, resolve):
        for op in (SeqScan(self.table, "t"), IndexEqScan(self.table, "t", "n", n)):
            rows = op.run()
            if resolve:
                assert all(vouch == kinds_of(self.table.live_rows(), p) for p, vouch in enumerate(rows.kinds))
            self.scans.append(rows)

    @invariant()
    def memos_match_a_sweep(self):
        live = self.table.live_rows()
        assert len(SeqScan(self.table, "t").run().kinds) == WIDTH
        for position in range(WIDTH):
            assert mirror(self.table)[position] == kinds_of(live, position)
            assert mirror(self.table).column(position) == [row[position] for row in live]
        assert mirror(self.table)[0] is mirror(self.table)[0]  # kept, not swept again
        expected = outcome(lambda: reference_collect(self.table.schema, live))
        stats = outcome(self.table.stats)
        assert_same_stats(stats, expected)
        assert_same_stats(outcome(lambda: TableStats.collect(self.table.schema, live)), expected)
        if isinstance(stats, TableStats):
            assert stats is self.table.stats() is self.db.stats_for("t")
            assert stats.row_count == len(live) == len(self.table)

    @invariant()
    def an_old_scan_never_vouches_for_less_than_it_holds(self):
        for rows in self.scans:
            for position, vouch in enumerate(rows.kinds):
                assert vouch is None or kinds_of(rows, position) <= vouch


KindsMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestKindsStateMachine = KindsMachine.TestCase
