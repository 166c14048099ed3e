"""A full relational backend behind a vendor dialect."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

from repro.cache.store import BoundedStore
from repro.common.relation import Relation
from repro.common.schema import RelSchema
from repro.engine.executor import LocalEngine
from repro.engine.physical import PhysicalOp
from repro.sources.base import DataSource, SourceCapabilities
from repro.sql.ast import Select
from repro.sql.printer import to_sql
from repro.sql.shape import Family, lift, plant, unbind
from repro.storage.catalog import Database
from repro.storage.stats import TableStats
from repro.wrappers.dialects import Dialect, QUIRK_AWARE

#: Statements `RelationalSource.query_log` keeps; older ones are dropped.
QUERY_LOG_LENGTH = 256

#: Statement shapes a source keeps prepared (LRU), a `Family` each:
#: never-repeating traffic must neither grow the process nor evict the rest.
PREPARED_STATEMENTS = 32


class _Prepared(NamedTuple):
    """A shape's prepared statement, as kept for one values tuple: the plan
    (planted, so it serves every values tuple of equal reads) and the text
    those values printed as."""

    values: tuple  # the constants of the statement it is kept for
    text: str  # that statement, in the dialect: for `query_log`
    reads: tuple  # `CostModel.slot_reads` of the planted plan's constants, which `cost` rests on
    cost: float  # the cost model's estimate
    physical: PhysicalOp


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
        #: statement shape (`repro.sql.shape`) -> the `Family` of its
        #: `_Prepared` bindings, stamped with `_state` of the tables they read
        self._prepared = BoundedStore("prepared", max_entries=PREPARED_STATEMENTS)

    def table_names(self) -> list[str]:
        return self.db.table_names()

    def schema_of(self, table: str) -> RelSchema:
        return self.db.table(table).schema

    def stats_of(self, table: str) -> Optional[TableStats]:
        return self.db.stats_for(table)

    def execute_select(self, stmt: Select, metrics=None) -> Relation:
        self._check_access()
        received, (stmt, values) = stmt, unbind(stmt)
        shape = lift(stmt).shape
        state = self._state(stmt)
        family = self._prepared.get(shape)
        if family is None or family.stamp != state:
            self._check_fits(received)  # the contract reads no constant: a shape was checked once
            family = Family(stamp=state)
        engine = self.engine
        prepared = family.find(values, lambda: engine.cost_model.slot_reads(stmt, values))
        if prepared is not None and prepared.values == values:
            text = prepared.text
        else:
            text = to_sql(stmt, self.capabilities.dialect.print_options, received.values if received is not stmt else ())
        self.query_log.append(text)
        if prepared is None:
            with engine.cost_model.memo_scope(values):  # the planted statement's `Param`s stand for these
                logical = engine.logical_plan(plant(stmt))
                cost = engine.cost_model.estimate(logical).cost
            reads = engine.cost_model.slot_reads(stmt, values)
            prepared = _Prepared(values, text, reads, cost, engine.lower(logical))
        elif prepared.text is not text:
            prepared = prepared._replace(values=values, text=text)
        kept = family.add(prepared)
        if kept is not family:  # planned, or kept for new values
            self._prepared.put(shape, kept)
        result = prepared.physical.relation(values)
        self._account(metrics, prepared.cost * self.capabilities.time_per_cost_unit_s)
        return result

    def _state(self, stmt: Select) -> tuple:
        """What the plans of `stmt`'s shape depend on besides the shape: the
        family they are kept in is stamped with it, and replaced whole when
        it moved.

        The dialect (the shape was checked and its texts printed under it),
        and per table the statement reads: the database's `Table` of that
        name (drop + re-create makes a new one; a dropped one is left out),
        its `version` (every write bumps it; statistics, so join order and
        cost, are cached by it) and its indexed columns (`create_index`
        changes the access path and leaves `version` alone). None of these
        comes back, so a stale family is never current again.
        """
        db = self.db
        tables = [db.table(ref.name) for ref in stmt.tables() if db.has_table(ref.name)]
        return (self.capabilities.dialect, *[
            (table, table.version, table.indexed_columns()) for table in tables
        ])
