"""A full relational backend behind a vendor dialect."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

from repro.cache.store import BoundedStore
from repro.common.errors import CapabilityError
from repro.common.relation import Relation
from repro.common.schema import RelSchema
from repro.engine.executor import LocalEngine
from repro.engine.physical import PhysicalOp
from repro.sources.base import DataSource, SourceCapabilities
from repro.sql.ast import Select
from repro.sql.printer import to_sql
from repro.storage.catalog import Database
from repro.storage.stats import TableStats
from repro.wrappers.dialects import Dialect, QUIRK_AWARE
from repro.wrappers.pushability import can_push_select

#: Statements `RelationalSource.query_log` keeps; older ones are dropped.
QUERY_LOG_LENGTH = 256

#: Prepared statements a source keeps (LRU). Small on purpose: repeating
#: traffic is a handful of statements per source, and never-repeating
#: traffic must not grow the process.
PREPARED_STATEMENTS = 32


class _Prepared(NamedTuple):
    """What running a statement again needs (no logical plan)."""

    dialect: Dialect  # `text` was checked and printed under this one
    text: str  # for `query_log`
    cost: float = 0.0  # the cost model's estimate
    physical: Optional[PhysicalOp] = None
    tables: tuple = ()  # every `Table` the plan reads ...
    state: tuple = ()  # ... and `_state` of them when it was planned


def _tables_read(op: PhysicalOp) -> list:
    table = getattr(op, "table", None)
    found = [] if table is None else [table]
    for child in op.children:
        found.extend(_tables_read(child))
    return found


class RelationalSource(DataSource):
    """A DBMS source: our storage engine plus its cost-based local engine.

    The `dialect` models the wrapper's knowledge of this backend, *not* the
    backend's true power — pass a lower-fidelity dialect to reproduce the
    E3 wrapper-generations experiment. Component queries outside the
    declared dialect raise `CapabilityError` (the planner must not generate
    them; the mediator compensates instead).
    """

    def __init__(
        self,
        name: str,
        db: Database,
        dialect: Dialect = QUIRK_AWARE,
        capabilities: Optional[SourceCapabilities] = None,
    ):
        capabilities = capabilities or SourceCapabilities(dialect=dialect)
        if capabilities.dialect is not dialect:
            capabilities.dialect = dialect
        super().__init__(name, capabilities)
        self.db = db
        self.engine = LocalEngine(db)
        #: SQL text of the most recent component queries received, in the
        #: source dialect (what a real wrapper would send over the wire).
        #: Useful in tests and EXPLAIN output. Bounded, so `len()` stops at
        #: `QUERY_LOG_LENGTH`: it is not a count of round-trips.
        self.query_log: deque[str] = deque(maxlen=QUERY_LOG_LENGTH)
        #: pushed-down `Select` -> `_Prepared`; hit from prefetch workers
        self._prepared = BoundedStore("prepared", max_entries=PREPARED_STATEMENTS)

    def table_names(self) -> list[str]:
        return self.db.table_names()

    def schema_of(self, table: str) -> RelSchema:
        return self.db.table(table).schema

    def stats_of(self, table: str) -> Optional[TableStats]:
        return self.db.stats_for(table)

    def execute_select(self, stmt: Select, metrics=None) -> Relation:
        self._check_access()
        dialect = self.capabilities.dialect
        prepared = self._prepared.get(stmt)
        if prepared is None or prepared.dialect is not dialect:
            if not can_push_select(stmt, dialect):
                raise CapabilityError(
                    f"source {self.name!r} ({dialect}) cannot run: {to_sql(stmt)}"
                )
            prepared = _Prepared(dialect, to_sql(stmt, dialect.print_options))
        self.query_log.append(prepared.text)
        if prepared.physical is None or self._state(prepared.tables) != prepared.state:
            logical = self.engine.logical_plan(stmt)
            cost = self.engine.cost_model.estimate(logical).cost
            physical = self.engine.lower(logical)
            tables = tuple(_tables_read(physical))
            prepared = prepared._replace(
                cost=cost, physical=physical, tables=tables, state=self._state(tables)
            )
            self._prepared.put(stmt, prepared)
        result = prepared.physical.relation()
        self._account(metrics, prepared.cost * self.capabilities.time_per_cost_unit_s)
        return result

    def _state(self, tables: tuple) -> tuple:
        """What a plan over `tables` depends on besides statement and dialect.

        Each is still the database's table of that name (drop + re-create
        makes a new one), its `version` (every write bumps it; statistics,
        so join order and cost, are cached by it) and its indexed columns
        (`create_index` changes the access path and leaves `version` alone).
        """
        db = self.db
        return tuple(
            (
                db.has_table(table.name) and db.table(table.name) is table,
                table.version,
                table.indexed_columns(),
            )
            for table in tables
        )
