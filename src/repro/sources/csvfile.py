"""Spreadsheet/CSV-grade sources: scan-only, nothing pushes down."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common.errors import CapabilityError
from repro.common.relation import Relation
from repro.common.schema import RelSchema
from repro.engine.physical import SeqScan
from repro.sources.base import SCAN_ONLY, DataSource, SourceCapabilities
from repro.sql.ast import Select
from repro.storage.io import load_csv
from repro.storage.stats import TableStats
from repro.storage.table import Table


class CsvSource(DataSource):
    """One or more flat files exposed as scan-only tables.

    Ashish's §2 point that "data … could well be stored in a spreadsheet"
    is modeled here: the source accepts only `SELECT [cols] FROM t` — every
    filter, join and aggregate over its data runs at the mediator.
    """

    def __init__(self, name: str, capabilities: Optional[SourceCapabilities] = None):
        capabilities = capabilities or SourceCapabilities(
            dialect=SCAN_ONLY, per_query_overhead_s=0.02
        )
        super().__init__(name, capabilities)
        self._tables: dict[str, Table] = {}

    # -- loading -------------------------------------------------------------------

    def add_table(self, name: str, columns: Sequence[tuple], rows) -> Table:
        table = Table.build(name, columns, rows)
        self._tables[name.lower()] = table
        return table

    def add_csv(self, name: str, path, columns: Sequence[tuple]) -> Table:
        return self.add_table(name, columns, load_csv(path, columns))

    # -- DataSource protocol -----------------------------------------------------

    def table_names(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())

    def schema_of(self, table: str) -> RelSchema:
        return self._table(table).schema

    def stats_of(self, table: str) -> Optional[TableStats]:
        return self._table(table).stats()

    def execute_select(self, stmt: Select, metrics=None) -> Relation:
        self._check_access()
        self._check_fits(stmt)
        table_ref = stmt.from_tables[0]
        table = self._table(table_ref.name)
        rows = SeqScan(table, table_ref.binding).run()  # holding the table's columns
        result = self._projected(stmt, table.schema.with_qualifier(table_ref.binding), rows)
        # Scanning a file costs time proportional to the full file, not the
        # projected width — that is the point of scan-only sources.
        self._account(metrics, len(rows) * self.capabilities.time_per_cost_unit_s)
        return result

    def _table(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise CapabilityError(f"{self.name!r} has no table {name!r}")
        return table
