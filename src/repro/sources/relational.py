"""A full relational backend behind a vendor dialect."""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.common.errors import CapabilityError
from repro.common.relation import Relation
from repro.common.schema import RelSchema
from repro.engine.executor import LocalEngine
from repro.sources.base import DataSource, SourceCapabilities
from repro.sql.ast import Select
from repro.sql.printer import to_sql
from repro.storage.catalog import Database
from repro.storage.stats import TableStats
from repro.wrappers.dialects import Dialect, QUIRK_AWARE
from repro.wrappers.pushability import can_push_select

#: Statements `RelationalSource.query_log` keeps; older ones are dropped.
QUERY_LOG_LENGTH = 256


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

    def table_names(self) -> list[str]:
        return self.db.table_names()

    def schema_of(self, table: str) -> RelSchema:
        return self.db.table(table).schema

    def stats_of(self, table: str) -> Optional[TableStats]:
        return self.db.stats_for(table)

    def execute_select(self, stmt: Select, metrics=None) -> Relation:
        self._check_access()
        dialect = self.capabilities.dialect
        if not can_push_select(stmt, dialect):
            raise CapabilityError(
                f"source {self.name!r} ({dialect}) cannot run: {to_sql(stmt)}"
            )
        self.query_log.append(to_sql(stmt, dialect.print_options))
        logical = self.engine.logical_plan(stmt)
        estimate = self.engine.cost_model.estimate(logical)
        result = self.engine.lower(logical).relation()
        self._account(metrics, estimate.cost * self.capabilities.time_per_cost_unit_s)
        return result
