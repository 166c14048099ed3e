"""Catalogs, databases and coarse transactions.

A `Database` is a named collection of tables plus a statistics cache. The
transaction support is intentionally simple — an undo log replayed on
rollback — but it is real enough to back the EAI saga engine's
compensation tests and the warehouse loader's atomic refresh.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Sequence

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
        """Statistics for a table, as its writes keep them (`Table.stats`)."""
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

    Mutations go through the transaction so it can record what each slot
    held before; rollback puts it back (`Table.put`), newest first. Every
    write goes through the table's own write paths, which keep its indexes
    and statistics. Usable as a context manager: commits on clean exit,
    rolls back on exception.
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
        self._undo.append((table, rid, None))

    def insert_many(self, table_name: str, rows: Iterable[Sequence]) -> int:
        count = 0
        for row in rows:
            self.insert(table_name, row)
            count += 1
        return count

    def delete_where(self, table_name: str, predicate) -> int:
        self._check_active()
        table = self.db.table(table_name)
        return self._logged(table, lambda removed: table.delete_rows(predicate, removed))

    def update_where(self, table_name: str, predicate, updater) -> int:
        self._check_active()
        table = self.db.table(table_name)
        return self._logged(table, lambda updated: table.update_rows(predicate, updater, updated))

    def _logged(self, table: Table, write: Callable[[list], None]) -> int:
        """Run `write`, logging each `(rid, old row)` it hands back for the
        rollback - those it changed before failing too; their count."""
        replaced: list[tuple[int, tuple]] = []
        try:
            write(replaced)
        finally:
            self._undo.extend((table, rid, row) for rid, row in replaced)
        return len(replaced)

    def commit(self) -> None:
        self._check_active()
        self._undo.clear()
        self._state = "committed"
        self.db._transaction_done()

    def rollback(self) -> None:
        self._check_active()
        for table, rid, row in reversed(self._undo):
            table.put(rid, row)
        self._undo.clear()
        self._state = "rolled_back"
        self.db._transaction_done()

    def _check_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction is {self._state}")
