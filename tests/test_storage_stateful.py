"""Stateful property testing of the storage table against a model.

Hypothesis drives random insert/delete/update/vacuum sequences against a
`Table` while a plain dict models the expected contents; invariants checked
after every step: row multiset, primary-key map, live count, and index
consistency (hash and sorted).

A second machine holds what a table remembers per version - column kinds,
statistics, the vouch a scan took - to a sweep of the live rows after any
sequence of writes, `clear`, `vacuum` and rolled-back transactions.
"""

import datetime

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
from repro.engine.physical import IndexEqScan, SeqScan
from repro.storage import Database, Table
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


DAY = datetime.date(2005, 6, 14)
NUMBERS = st.one_of(st.none(), st.integers(0, 3))
#: a `datetime` is a DATE too, and its own exact kind (beside a `date`,
#: `TableStats.collect` cannot order the column: not this file's subject)
DAYS = st.sampled_from([None, datetime.datetime(2005, 6, 14, 12), datetime.datetime(2005, 6, 15)])
ANYTHING = st.sampled_from([None, 1, 2.5, "x", True, DAY])
WIDTH = 4


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
        self.table = self.db.create_table("t", [("id", T.INT), ("n", T.INT), ("d", T.DATE), ("v", T.ANY)])
        self.table.create_index("n")
        self.next_id = 0
        self.scans: list = []

    def row(self, n, d, v):
        self.next_id += 1
        return (self.next_id, n, d, v)

    @rule(n=NUMBERS, d=DAYS, v=ANYTHING)
    def insert(self, n, d, v):
        self.table.insert(self.row(n, d, v))

    @rule(n=NUMBERS, v=ANYTHING)
    def update(self, n, v):
        self.table.update_where(lambda row: row[1] == n, lambda row: row[:3] + (v,))

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
        before = sorted(self.table.rows())
        txn = self.db.begin()
        txn.insert("t", self.row(n, d, v))
        txn.update_where("t", lambda row: row[1] == drop, lambda row: row[:3] + (v,))
        txn.delete_where("t", lambda row: row[1] == n)
        self.read(position=3)  # a memo of the uncommitted state
        txn.rollback()
        assert sorted(self.table.rows()) == before

    @rule(position=st.integers(0, WIDTH - 1))
    def read(self, position):
        assert mirror(self.table)[position] == kinds_of(self.table.live_rows(), position)
        assert self.table.stats().row_count == len(self.table)

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
        stats = self.table.stats()
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
