"""Heap tables with primary keys and maintained secondary indexes."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.common.errors import IntegrityError, SchemaError
from repro.common.relation import Batch, Relation, vouched
from repro.common.schema import Column, RelSchema
from repro.common.types import coerce_value
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.stats import Tally, TableStats


class Table:
    """A mutable heap of typed rows.

    Rows live in a list; deletions leave `None` tombstones so row ids stay
    stable for the indexes (compaction is explicit via `vacuum`). All
    mutations validate types against the schema and maintain the primary-key
    constraint and any secondary indexes - and, once the table is written
    after its statistics were read, the `Tally` they are read off.
    """

    def __init__(
        self,
        name: str,
        schema: RelSchema,
        primary_key: Optional[Sequence[str]] = None,
    ):
        for column in schema:
            if column.qualifier is not None:
                raise SchemaError("stored table columns must be unqualified")
        if len(set(n.lower() for n in schema.names)) != len(schema):
            raise SchemaError(f"duplicate column names in table {name!r}")
        self.name = name
        self.schema = schema
        self.primary_key = tuple(primary_key or ())
        self._pk_indexes = tuple(schema.index_of(col) for col in self.primary_key)
        self._heap: list[Optional[tuple]] = []
        self._live_count = 0
        self._pk_map: dict[tuple, int] = {}
        self._indexes: dict[str, object] = {}
        self.version = 0  # bumped on every mutation; used for staleness tracking
        self._derived: tuple = (0, {})  # what `derived` keeps for `version`
        self._tally: Optional[Tally] = None  # kept by writes once stats are re-read
        self._stats_read = False
        self._lock = threading.Lock()  # a write to the heap against a read of the tally
        self._writing = 0  # statements under way: nothing derived meanwhile is kept

    # -- construction helpers -------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        columns: Sequence[tuple],
        rows: Iterable[Sequence] = (),
        primary_key: Optional[Sequence[str]] = None,
    ) -> "Table":
        """Build a table from `(name, DataType)` column specs and rows."""
        schema = RelSchema(Column(col_name, dtype) for col_name, dtype in columns)
        table = cls(name, schema, primary_key)
        table.insert_many(rows)
        return table

    # -- introspection ---------------------------------------------------------

    def __len__(self):
        return self._live_count

    def __repr__(self):
        return f"Table({self.name!r}, {self._live_count} rows)"

    def rows(self) -> Iterator[tuple]:
        """Iterate live rows in heap order."""
        return iter(self.live_rows())

    def live_rows(self) -> list[tuple]:
        """A new list (a `Batch`) of the live rows in heap order, without tombstones."""
        heap = self._heap
        if self._live_count == len(heap):
            return Batch(heap)
        return Batch(compress(heap, map(is_not, heap, repeat(None))))

    def derived(self, key, derive: Callable):
        """`derive()`, kept until a write moves `version`: the one memo of what
        is computed from the whole heap (statistics, the mirror's columns).
        What a write moved `version` past, or ran beside, while it was
        derived is not kept."""
        version = self.version
        memo = self._derived
        if memo[0] != version:
            memo = self._derived = (version, {})
        kept = memo[1]
        if key in kept:
            return kept[key]
        value = derive()
        if self.version == version and not self._writing:
            kept[key] = value
        return value

    def stats(self) -> TableStats:
        """The statistics of the live rows, read off the tally writes keep
        or, until the table is written after a read, a new tally of the heap."""
        return self.derived("stats", self._read_stats)

    def _read_stats(self) -> TableStats:
        with self._lock:
            tally = self._tally
            if tally is None:
                tally = Tally(self.schema, self._heap)
                if self._stats_read:  # read, written since (a new version), read again
                    self._tally = tally
                self._stats_read = True
            return tally.stats(self._heap)

    def vouch(self, version: int, rows: list) -> list:
        """`rows` - live ones, read no earlier than `version` - vouched by
        the table's `Mirror` at `version`, unless a write moved it since."""
        if self.version != version:
            return rows
        return vouched(rows, Mirror(self, version))

    def column_at(self, position: int, version: int) -> Optional[tuple]:
        """`(values, kinds)` of column `position` of the live rows - its
        values in heap order and the exact types among them - gathered when
        first asked for at `version`; None once a write moved past it."""
        if self.version != version:
            return None
        column = self.derived(position, lambda: _gathered(self.live_rows(), position))
        return column if self.version == version else None

    def scan(self) -> Relation:
        """Materialize all live rows as a Relation qualified by table name."""
        return Relation(self.schema.with_qualifier(self.name), self.live_rows())

    def row_by_id(self, rid: int) -> Optional[tuple]:
        if 0 <= rid < len(self._heap):
            return self._heap[rid]
        return None

    def get(self, *key_values) -> Optional[tuple]:
        """Point lookup by primary key; None if absent."""
        if not self.primary_key:
            raise IntegrityError(f"table {self.name!r} has no primary key")
        rid = self._pk_map.get(tuple(key_values))
        return self._heap[rid] if rid is not None else None

    # -- mutation ---------------------------------------------------------------

    def insert(self, row: Sequence) -> int:
        """Insert one row, returning its row id."""
        coerced = self._coerce_row(row)
        if self.primary_key:
            key = tuple(coerced[i] for i in self._pk_indexes)
            if any(part is None for part in key):
                raise IntegrityError(
                    f"NULL in primary key {self.primary_key} of {self.name!r}"
                )
            if key in self._pk_map:
                raise IntegrityError(
                    f"duplicate primary key {key} in table {self.name!r}"
                )
        with self._lock:
            rid = len(self._heap)
            self._heap.append(coerced)
            self._live_count += 1
            if self.primary_key:
                self._pk_map[key] = rid
            for index in self._indexes.values():
                position = self.schema.index_of(index.column)
                index.insert(coerced[position], rid)
            if self._tally is not None:
                self._tally.add(rid, coerced)
            self.version += 1
        return rid

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def insert_dict(self, values: dict) -> int:
        """Insert from a column-name-keyed dict; missing columns become NULL."""
        lowered = {key.lower(): value for key, value in values.items()}
        row = [lowered.get(column.name.lower()) for column in self.schema]
        unknown = set(lowered) - {column.name.lower() for column in self.schema}
        if unknown:
            raise SchemaError(f"unknown columns {sorted(unknown)} for {self.name!r}")
        return self.insert(row)

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete rows satisfying `predicate`; returns the count removed."""
        removed: list[tuple[int, tuple]] = []
        self.delete_rows(predicate, removed)
        return len(removed)

    def delete_rows(self, predicate: Callable[[tuple], bool], removed: list) -> None:
        """Delete rows satisfying `predicate` as one statement, appending the
        `(rid, row)` of each to `removed` before it goes."""
        with self._statement(removed):
            for rid, row in enumerate(self._heap):
                if row is not None and predicate(row):
                    removed.append((rid, row))
                    self._delete_rid(rid)

    def update_where(
        self,
        predicate: Callable[[tuple], bool],
        updater: Callable[[tuple], Sequence],
    ) -> int:
        """Replace rows satisfying `predicate` with `updater(row)`."""
        updated: list[tuple[int, tuple]] = []
        self.update_rows(predicate, updater, updated)
        return len(updated)

    def update_rows(
        self,
        predicate: Callable[[tuple], bool],
        updater: Callable[[tuple], Sequence],
        updated: list,
    ) -> None:
        """Replace rows satisfying `predicate` with `updater(row)`, each in
        its slot, as one statement, appending the `(rid, old row)` of each
        to `updated` before it changes."""
        with self._statement(updated):
            for rid, row in enumerate(self._heap):
                if row is None or not predicate(row):
                    continue
                new_row = self._coerce_row(updater(row))
                updated.append((rid, row))
                self._delete_rid(rid)
                self._reinsert_at(rid, new_row)

    @contextmanager
    def _statement(self, changed: list) -> Iterator[None]:
        """A write of many slots, each logged in `changed` before it
        changes: `version` moves once, when the write ends - also when it
        fails part way, if it logged a slot - and nothing derived while it
        runs is kept. Whoever passed `changed` can put back every slot it
        names, the one a failure interrupted included."""
        logged = len(changed)
        self._writing += 1
        try:
            yield
        finally:
            if len(changed) > logged:
                self.version += 1
            self._writing -= 1

    def put(self, rid: int, row: Optional[tuple]) -> None:
        """Make slot `rid` hold `row` (None: a tombstone) - how a rollback
        puts back what a write replaced."""
        replaced: list[tuple[int, Optional[tuple]]] = []
        with self._statement(replaced):
            replaced.append((rid, self._heap[rid]))
            self._delete_rid(rid)
            if row is not None:
                self._reinsert_at(rid, row)

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()
            self._pk_map.clear()
            self._live_count = 0
            for index in self._indexes.values():
                column = index.column
                self._indexes[column] = type(index)(column)
            self._tally = None
            self.version += 1

    def vacuum(self) -> None:
        """Compact tombstones; invalidates row ids, so indexes are rebuilt."""
        with self._lock:
            live = [row for row in self._heap if row is not None]
            self._heap = []
            self._pk_map.clear()
            self._live_count = 0
            self._tally = None
        old_indexes = list(self._indexes.values())
        self._indexes.clear()
        for row in live:
            self.insert(row)
        for index in old_indexes:
            self.create_index(index.column, sorted=isinstance(index, SortedIndex))

    # -- indexes -----------------------------------------------------------------

    def create_index(self, column: str, sorted: bool = False):
        """Create (or return) a secondary index on `column`."""
        existing = self._indexes.get(column)
        if existing is not None:
            return existing
        position = self.schema.index_of(column)
        index = SortedIndex(column) if sorted else HashIndex(column)
        for rid, row in enumerate(self._heap):
            if row is not None:
                index.insert(row[position], rid)
        self._indexes[column] = index
        return index

    def index_on(self, column: str):
        return self._indexes.get(column)

    def indexed_columns(self) -> tuple:
        return tuple(self._indexes)

    def lookup(self, column: str, value) -> list[tuple]:
        """Indexed equality lookup, falling back to a scan if unindexed."""
        index = self._indexes.get(column)
        if index is not None:
            return [self._heap[rid] for rid in index.lookup(value)]
        position = self.schema.index_of(column)
        return [row for row in self.rows() if row[position] == value]

    def lookup_each(self, column: str, values) -> list[tuple]:
        """`lookup(column, value)` of each of `values`, concatenated in order:
        one comprehension over the index buckets where `column` has one."""
        index = self._indexes.get(column)
        if index is None:
            return [row for value in values for row in self.lookup(column, value)]
        heap, find = self._heap, index.lookup
        return [heap[rid] for value in values for rid in find(value)]

    # -- internals ------------------------------------------------------------

    def _coerce_row(self, row: Sequence) -> tuple:
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row width {len(row)} != schema width {len(self.schema)} "
                f"for table {self.name!r}"
            )
        return tuple(
            coerce_value(value, column.dtype)
            for value, column in zip(row, self.schema)
        )

    def _delete_rid(self, rid: int) -> None:
        with self._lock:
            row = self._heap[rid]
            if row is None:
                return
            self._heap[rid] = None
            self._live_count -= 1
            if self.primary_key:
                key = tuple(row[i] for i in self._pk_indexes)
                self._pk_map.pop(key, None)
            for index in self._indexes.values():
                position = self.schema.index_of(index.column)
                index.remove(row[position], rid)
            if self._tally is not None:
                self._tally.remove(rid, row)

    def _reinsert_at(self, rid: int, row: tuple) -> None:
        if self.primary_key:
            key = tuple(row[i] for i in self._pk_indexes)
            existing = self._pk_map.get(key)
            if existing is not None and existing != rid:
                raise IntegrityError(
                    f"update would duplicate primary key {key} in {self.name!r}"
                )
        with self._lock:
            if self.primary_key:
                self._pk_map[key] = rid
            self._heap[rid] = row
            self._live_count += 1
            for index in self._indexes.values():
                position = self.schema.index_of(index.column)
                index.insert(row[position], rid)
            if self._tally is not None:
                self._tally.add(rid, row)


def _gathered(rows: list, position: int) -> tuple:
    values = list(map(itemgetter(position), rows))
    return values, frozenset(map(type, values))


class Mirror:
    """A table's live rows at one `version`, column-major: `column(p)` is
    column `p`'s values in heap order, `self[p]` the exact types among them
    - so a full scan hands its rows out with a mirror as both their
    `columns` and their `kinds`, an index scan as their `kinds` only. Each
    column is gathered from the heap when first asked for, once per version
    (`Table.column_at`); both answers are None once a write moved the table
    past `version`."""

    __slots__ = ("table", "version")

    def __init__(self, table: Table, version: int):
        self.table = table
        self.version = version

    def __len__(self) -> int:
        return len(self.table.schema)

    def __getitem__(self, position: int) -> Optional[frozenset]:
        column = self.table.column_at(position, self.version)
        return None if column is None else column[1]

    def __iter__(self) -> Iterator[Optional[frozenset]]:
        return map(self.__getitem__, range(len(self)))

    def column(self, position: int) -> Optional[list]:
        column = self.table.column_at(position, self.version)
        return None if column is None else column[0]
