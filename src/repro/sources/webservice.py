"""Web-service sources with binding patterns (limited access paths)."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.common.errors import CapabilityError
from repro.common.relation import Relation
from repro.common.schema import RelSchema
from repro.sources.base import SCAN_ONLY, DataSource, SourceCapabilities
from repro.sql.ast import BinaryOp, ColumnRef, InList, Literal, Select, Star
from repro.sql.exprutil import split_conjuncts
from repro.storage.stats import TableStats
from repro.storage.table import Table


class WebServiceSource(DataSource):
    """A source reachable only through a keyed lookup operation.

    Classic data-integration *binding pattern*: the table's rows can only be
    retrieved by supplying values for the bound column (think `getOrders
    (customerId)`). The federated planner must therefore drive this source
    with a bind join: collect keys from another source first, then probe.

    A component query must be `SELECT cols FROM t WHERE key = v` or
    `... WHERE key IN (v1, …)`; anything else raises `CapabilityError`.
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
        if len(stmt.tables()) != 1:
            raise CapabilityError(f"{self.name!r} serves a single operation")
        table_ref = stmt.from_tables[0]
        self._check_table(table_ref.name)
        keys = self._extract_keys(stmt)
        if keys is None:
            raise CapabilityError(
                f"{self.name!r} requires an equality or IN binding on "
                f"{self.bound_column!r}"
            )
        schema = self._backing.schema.with_qualifier(table_ref.binding)
        rows: list[tuple] = []
        for key in keys:
            rows.extend(self.lookup(key))
            # Every distinct key is one service invocation.
            self._account(metrics, 0.0)
        positions = self._projection(stmt, schema)
        out_rows = [tuple(row[i] for i in positions) for row in rows]
        return Relation(schema.project(positions), out_rows)

    # -- internals --------------------------------------------------------------

    def _check_table(self, name: str) -> None:
        if name.lower() != self.table_name.lower():
            raise CapabilityError(f"{self.name!r} has no table {name!r}")

    def _extract_keys(self, stmt: Select):
        """Pull bound-column key values from the WHERE clause."""
        if stmt.where is None:
            return None
        keys: list = []
        found = False
        for conjunct in split_conjuncts(stmt.where):
            if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
                sides = (conjunct.left, conjunct.right)
                for a, b in (sides, sides[::-1]):
                    if (
                        isinstance(a, ColumnRef)
                        and a.name.lower() == self.bound_column.lower()
                        and isinstance(b, Literal)
                    ):
                        keys.append(b.value)
                        found = True
            elif (
                isinstance(conjunct, InList)
                and not conjunct.negated
                and isinstance(conjunct.operand, ColumnRef)
                and conjunct.operand.name.lower() == self.bound_column.lower()
                and all(isinstance(item, Literal) for item in conjunct.items)
            ):
                keys.extend(item.value for item in conjunct.items)
                found = True
            else:
                raise CapabilityError(
                    f"{self.name!r} cannot evaluate predicate {conjunct}"
                )
        if not found:
            return None
        # de-duplicate, preserving order
        seen = set()
        unique = []
        for key in keys:
            if key not in seen:
                seen.add(key)
                unique.append(key)
        return unique

    def _projection(self, stmt: Select, schema: RelSchema) -> list[int]:
        positions: list[int] = []
        for item in stmt.items:
            if isinstance(item.expr, Star):
                positions.extend(range(len(schema)))
            elif isinstance(item.expr, ColumnRef):
                positions.append(schema.index_of(item.expr.name, item.expr.qualifier))
            else:
                raise CapabilityError(f"{self.name!r} cannot compute {item.expr}")
        return positions
