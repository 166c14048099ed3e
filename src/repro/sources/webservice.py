"""Web-service sources with binding patterns (limited access paths)."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.common.errors import CapabilityError
from repro.common.relation import Relation
from repro.common.schema import RelSchema
from repro.sources.base import SCAN_ONLY, DataSource, SourceCapabilities
from repro.sql.ast import Select
from repro.sql.exprutil import split_conjuncts
from repro.sql.shape import Bound, resolved
from repro.storage.stats import TableStats
from repro.storage.table import Table
from repro.wrappers.pushability import binding_supplier


class WebServiceSource(DataSource):
    """A source reachable only through a keyed lookup operation.

    Classic data-integration *binding pattern*: the table's rows can only be
    retrieved by supplying values for the bound column (think `getOrders
    (customerId)`). The federated planner must therefore drive this source
    with a bind join: collect keys from another source first, then probe.

    A component query must be `SELECT cols FROM t WHERE key = v` or
    `... WHERE key IN (v1, …)` (ANDed, their keys intersect); anything else
    raises `CapabilityError` (`repro.wrappers.pushability.statement_reasons`).
    """

    def __init__(
        self,
        name: str,
        table_name: str,
        columns: Sequence[tuple],
        bound_column: str,
        handler: Optional[Callable] = None,
        rows=None,
        capabilities: Optional[SourceCapabilities] = None,
        per_call_overhead_s: float = 0.03,
    ):
        capabilities = capabilities or SourceCapabilities(
            dialect=SCAN_ONLY,
            per_query_overhead_s=per_call_overhead_s,
            binding_patterns={table_name.lower(): bound_column.lower()},
        )
        super().__init__(name, capabilities)
        self.table_name = table_name
        self.bound_column = bound_column
        self._backing = Table.build(table_name, columns, rows or [])
        self._backing.create_index(bound_column)
        self._handler = handler

    def table_names(self) -> list[str]:
        return [self.table_name]

    def schema_of(self, table: str) -> RelSchema:
        self._check_table(table)
        return self._backing.schema

    def stats_of(self, table: str) -> Optional[TableStats]:
        self._check_table(table)
        return self._backing.stats()

    def lookup(self, key_value) -> list[tuple]:
        """One service call: all rows for one key value."""
        if self._handler is not None:
            return [tuple(row) for row in self._handler(key_value)]
        return self._backing.lookup(self.bound_column, key_value)

    def execute_select(self, stmt: Select, metrics=None) -> Relation:
        self._check_access()
        if isinstance(stmt, Bound):  # its keys are the constants it stands for
            stmt = resolved(stmt.stmt, stmt.values)
        self._check_fits(stmt)
        table_ref = stmt.from_tables[0]
        self._check_table(table_ref.name)
        # the contract let through suppliers of the bound column only: their
        # key sets intersect, each distinct key once, in order of first mention
        keys: Optional[dict] = None
        for conjunct in split_conjuncts(stmt.where):
            _, values = binding_supplier(conjunct)
            if keys is None:
                keys = dict.fromkeys(values)
            else:
                wanted = set(values)
                keys = {key: None for key in keys if key in wanted}
        keys = keys or {}
        if self._handler is None:
            rows = self._backing.lookup_each(self.bound_column, keys)
        else:
            rows = [row for key in keys for row in self.lookup(key)]
        self._account(metrics, 0.0, len(keys))  # every distinct key is one service invocation
        return self._projected(stmt, self._backing.schema.with_qualifier(table_ref.binding), rows)

    # -- internals --------------------------------------------------------------

    def _check_table(self, name: str) -> None:
        if name.lower() != self.table_name.lower():
            raise CapabilityError(f"{self.name!r} has no table {name!r}")
