"""Unit tests for the storage substrate: tables, indexes, stats, catalog."""

import pytest

from repro.common.errors import IntegrityError, SchemaError, TransactionError
from repro.common.schema import Column
from repro.common.types import DataType
from repro.storage import Database, HashIndex, SortedIndex, Table, TableStats

COLUMNS = [("id", DataType.INT), ("name", DataType.STRING), ("age", DataType.INT)]
ROWS = [(1, "ann", 34), (2, "bob", 28), (3, "cat", 41)]


def make_table():
    return Table.build("people", COLUMNS, ROWS, primary_key=["id"])


class TestTable:
    def test_len_and_rows(self):
        table = make_table()
        assert len(table) == 3
        assert list(table.rows()) == ROWS

    def test_scan_qualifies_schema(self):
        rel = make_table().scan()
        assert rel.schema.qualified_names == ["people.id", "people.name", "people.age"]

    def test_primary_key_lookup(self):
        assert make_table().get(2) == (2, "bob", 28)
        assert make_table().get(99) is None

    def test_duplicate_pk_rejected(self):
        table = make_table()
        with pytest.raises(IntegrityError):
            table.insert((1, "dup", 1))

    def test_null_pk_rejected(self):
        table = make_table()
        with pytest.raises(IntegrityError):
            table.insert((None, "x", 1))

    def test_type_coercion_on_insert(self):
        table = make_table()
        table.insert(("4", "dan", "22"))
        assert table.get(4) == (4, "dan", 22)

    def test_wrong_width_rejected(self):
        with pytest.raises(SchemaError):
            make_table().insert((1, "x"))

    def test_insert_dict(self):
        table = make_table()
        table.insert_dict({"id": 9, "name": "zoe"})
        assert table.get(9) == (9, "zoe", None)

    def test_insert_dict_unknown_column(self):
        with pytest.raises(SchemaError):
            make_table().insert_dict({"id": 9, "nope": 1})

    def test_delete_where(self):
        table = make_table()
        assert table.delete_where(lambda row: row[2] > 30) == 2
        assert len(table) == 1
        assert table.get(1) is None

    def test_update_where(self):
        table = make_table()
        table.update_where(
            lambda row: row[0] == 2, lambda row: (row[0], row[1], row[2] + 1)
        )
        assert table.get(2) == (2, "bob", 29)

    def test_update_cannot_duplicate_pk(self):
        table = make_table()
        with pytest.raises(IntegrityError):
            table.update_where(
                lambda row: row[0] == 2, lambda row: (1, row[1], row[2])
            )

    def test_version_bumps(self):
        table = make_table()
        before = table.version
        table.insert((5, "eli", 20))
        assert table.version > before

    def test_vacuum_preserves_rows(self):
        table = make_table()
        table.delete_where(lambda row: row[0] == 2)
        table.create_index("age")
        table.vacuum()
        assert sorted(table.rows()) == [(1, "ann", 34), (3, "cat", 41)]
        assert table.lookup("age", 41) == [(3, "cat", 41)]

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Table.build("t", [("a", DataType.INT), ("A", DataType.INT)])


class TestIndexes:
    def test_hash_lookup(self):
        table = make_table()
        table.create_index("name")
        assert table.lookup("name", "bob") == [(2, "bob", 28)]

    def test_lookup_without_index_scans(self):
        assert make_table().lookup("name", "cat") == [(3, "cat", 41)]

    def test_index_maintained_on_delete(self):
        table = make_table()
        table.create_index("name")
        table.delete_where(lambda row: row[1] == "bob")
        assert table.lookup("name", "bob") == []

    def test_sorted_index_range(self):
        table = make_table()
        index = table.create_index("age", sorted=True)
        rids = index.range(low=28, high=35)
        ages = sorted(table.row_by_id(rid)[2] for rid in rids)
        assert ages == [28, 34]

    def test_sorted_index_exclusive_bounds(self):
        index = SortedIndex("x")
        for rid, key in enumerate([1, 2, 2, 3]):
            index.insert(key, rid)
        assert len(index.range(low=2, high=3, include_low=False, include_high=False)) == 0
        assert len(index.range(low=2, include_low=False)) == 1

    def test_sorted_index_skips_nulls(self):
        index = SortedIndex("x")
        index.insert(None, 0)
        assert len(index) == 0

    def test_sorted_index_min_max(self):
        index = SortedIndex("x")
        for rid, key in enumerate([5, 1, 9]):
            index.insert(key, rid)
        assert index.min_key() == 1
        assert index.max_key() == 9

    def test_hash_index_remove_cleans_bucket(self):
        index = HashIndex("x")
        index.insert("k", 1)
        index.remove("k", 1)
        assert index.lookup("k") == set()
        assert list(index.keys()) == []


class TestStats:
    def test_collect_basics(self):
        table = make_table()
        stats = TableStats.collect(table.schema, list(table.rows()))
        assert stats.row_count == 3
        age = stats.column("age")
        assert age.distinct == 3
        assert age.min_value == 28
        assert age.max_value == 41

    def test_null_fraction(self):
        stats = TableStats.collect(
            make_table().schema, [(1, None, 10), (2, "x", None)]
        )
        assert stats.column("name").null_fraction == 0.5

    def test_eq_selectivity_out_of_range_is_zero(self):
        stats = TableStats.collect(make_table().schema, ROWS)
        assert stats.column("age").eq_selectivity(100) == 0.0

    def test_eq_selectivity_in_range(self):
        stats = TableStats.collect(make_table().schema, ROWS)
        assert stats.column("age").eq_selectivity(34) == pytest.approx(1 / 3)

    def test_range_selectivity_monotone(self):
        rows = [(i, "x", i) for i in range(100)]
        stats = TableStats.collect(make_table().schema, rows)
        age = stats.column("age")
        low = age.range_selectivity("<", 10)
        high = age.range_selectivity("<", 90)
        assert low < high
        assert 0.0 <= low and high <= 1.0

    def test_histogram_fraction_below_extremes(self):
        rows = [(i, "x", i) for i in range(50)]
        stats = TableStats.collect(make_table().schema, rows)
        hist = stats.column("age").histogram
        assert hist.fraction_below(-1) == 0.0
        assert hist.fraction_below(1000) == 1.0

    def test_scaled(self):
        stats = TableStats.collect(make_table().schema, ROWS)
        scaled = stats.scaled(1 / 3)
        assert scaled.row_count == 1
        assert scaled.column("age").distinct == 1


class TestDatabase:
    def make_db(self):
        db = Database("test")
        db.add_table(make_table())
        return db

    def test_create_and_get(self):
        db = Database()
        db.create_table("t", COLUMNS, primary_key=["id"])
        assert db.table("t").name == "t"
        assert db.has_table("T")

    def test_duplicate_table_rejected(self):
        db = self.make_db()
        with pytest.raises(SchemaError):
            db.create_table("people", COLUMNS)

    def test_a_type_that_is_not_a_data_type_is_refused_when_the_table_is_made(self):
        """It used to be taken, and the first insert raised an untyped
        `AttributeError` from `coerce_value`'s error path."""
        db = Database()
        with pytest.raises(SchemaError, match="column 'age'.*'INT'"):
            db.create_table("t", [("id", DataType.INT), ("age", "INT")])
        assert not db.has_table("t")
        with pytest.raises(SchemaError, match="column 'name'"):
            Column("name", str)

    def test_missing_table(self):
        with pytest.raises(SchemaError):
            Database().table("ghost")

    def test_drop(self):
        db = self.make_db()
        db.drop_table("people")
        assert not db.has_table("people")

    def test_stats_cached_until_version_change(self):
        db = self.make_db()
        first = db.stats_for("people")
        assert db.stats_for("people") is first
        db.table("people").insert((10, "new", 1))
        assert db.stats_for("people") is not first

    def test_analyze(self):
        db = self.make_db()
        db.analyze()
        assert db.stats_for("people").row_count == 3


class TestTransactions:
    def make_db(self):
        db = Database("txn")
        db.add_table(make_table())
        return db

    def test_commit_keeps_changes(self):
        db = self.make_db()
        with db.begin() as txn:
            txn.insert("people", (4, "dan", 22))
        assert db.table("people").get(4) is not None

    def test_rollback_undoes_insert(self):
        db = self.make_db()
        txn = db.begin()
        txn.insert("people", (4, "dan", 22))
        txn.rollback()
        assert db.table("people").get(4) is None

    def test_rollback_undoes_delete(self):
        db = self.make_db()
        txn = db.begin()
        txn.delete_where("people", lambda row: row[0] == 1)
        assert db.table("people").get(1) is None
        txn.rollback()
        assert db.table("people").get(1) == (1, "ann", 34)

    def test_rollback_undoes_update(self):
        db = self.make_db()
        txn = db.begin()
        txn.update_where(
            "people", lambda row: row[0] == 1, lambda row: (1, "ANN", 99)
        )
        assert db.table("people").get(1) == (1, "ANN", 99)
        txn.rollback()
        assert db.table("people").get(1) == (1, "ann", 34)

    def test_exception_rolls_back(self):
        db = self.make_db()
        with pytest.raises(RuntimeError):
            with db.begin() as txn:
                txn.insert("people", (4, "dan", 22))
                raise RuntimeError("boom")
        assert db.table("people").get(4) is None

    def test_nested_transactions_rejected(self):
        db = self.make_db()
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()

    def test_use_after_commit_rejected(self):
        db = self.make_db()
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("people", (5, "x", 1))
