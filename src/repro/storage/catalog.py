"""Catalogs, databases and coarse transactions.

A `Database` is a named collection of tables plus a statistics cache. The
transaction support is intentionally simple — an undo log replayed on
rollback — but it is real enough to back the EAI saga engine's
compensation tests and the warehouse loader's atomic refresh.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

from repro.common.errors import SchemaError, TransactionError
from repro.common.schema import Column, RelSchema
from repro.storage.stats import TableStats
from repro.storage.table import Table


class Catalog:
    """A case-insensitive namespace of tables."""

    def __init__(self):
        self._tables: dict[str, Table] = {}

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple],
        primary_key: Optional[Sequence[str]] = None,
    ) -> Table:
        if name.lower() in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        schema = RelSchema(Column(col, dtype) for col, dtype in columns)
        table = Table(name, schema, primary_key)
        self._tables[name.lower()] = table
        return table

    def add_table(self, table: Table) -> Table:
        if table.name.lower() in self._tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self._tables[table.name.lower()] = table
        return table

    def drop_table(self, name: str) -> None:
        if name.lower() not in self._tables:
            raise SchemaError(f"no such table {name!r}")
        del self._tables[name.lower()]

    def table(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise SchemaError(
                f"no such table {name!r}; have: {sorted(self._tables)}"
            )
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    def table_names(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())


class Database(Catalog):
    """A catalog with statistics management and transactions."""

    def __init__(self, name: str = "db"):
        super().__init__()
        self.name = name
        self._active_txn: Optional[Transaction] = None
        self.created_at = time.time()

    def stats_for(self, table_name: str) -> TableStats:
        """Statistics for a table, recollected when the table has changed."""
        return self.table(table_name).stats()

    def analyze(self) -> None:
        """Refresh statistics for every table."""
        for table in self.tables():
            self.stats_for(table.name)

    def begin(self) -> "Transaction":
        if self._active_txn is not None:
            raise TransactionError("a transaction is already active")
        self._active_txn = Transaction(self)
        return self._active_txn

    def _transaction_done(self) -> None:
        self._active_txn = None


class Transaction:
    """Undo-log transaction over a Database.

    Mutations go through the transaction so it can record inverse
    operations. Rollback replays the undo log in reverse. Usable as a
    context manager: commits on clean exit, rolls back on exception.
    """

    def __init__(self, db: Database):
        self.db = db
        self._undo: list = []
        self._state = "active"

    # -- context manager -------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._state != "active":
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False

    # -- operations --------------------------------------------------------------

    def insert(self, table_name: str, row: Sequence) -> None:
        self._check_active()
        table = self.db.table(table_name)
        rid = table.insert(row)
        self._undo.append(("delete", table, rid))

    def insert_many(self, table_name: str, rows: Iterable[Sequence]) -> int:
        count = 0
        for row in rows:
            self.insert(table_name, row)
            count += 1
        return count

    def delete_where(self, table_name: str, predicate) -> int:
        self._check_active()
        table = self.db.table(table_name)
        removed = []
        for rid, row in enumerate(table._heap):
            if row is not None and predicate(row):
                removed.append((rid, row))
        for rid, row in removed:
            table._delete_rid(rid)
            self._undo.append(("reinsert", table, rid, row))
        return len(removed)

    def update_where(self, table_name: str, predicate, updater) -> int:
        self._check_active()
        table = self.db.table(table_name)
        updated = 0
        for rid, row in enumerate(table._heap):
            if row is None or not predicate(row):
                continue
            new_row = table._coerce_row(updater(row))
            table._delete_rid(rid, bump=False)
            table._reinsert_at(rid, new_row)
            table.version += 1
            self._undo.append(("restore", table, rid, row))
            updated += 1
        return updated

    def commit(self) -> None:
        self._check_active()
        self._undo.clear()
        self._state = "committed"
        self.db._transaction_done()

    def rollback(self) -> None:
        self._check_active()
        for entry in reversed(self._undo):
            op, table = entry[0], entry[1]
            if op == "delete":
                table._delete_rid(entry[2])
            elif op == "reinsert":
                rid, row = entry[2], entry[3]
                table._heap[rid] = None  # ensure slot empty, then reinsert
                table._reinsert_at(rid, row)
                table.version += 1
            elif op == "restore":
                rid, row = entry[2], entry[3]
                table._delete_rid(rid, bump=False)
                table._reinsert_at(rid, row)
                table.version += 1
        self._undo.clear()
        self._state = "rolled_back"
        self.db._transaction_done()

    def _check_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction is {self._state}")
