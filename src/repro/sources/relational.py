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
from repro.sql.ast import Literal, Select
from repro.sql.printer import to_sql
from repro.sql.shape import FAMILY, lift, plant
from repro.storage.catalog import Database
from repro.storage.stats import TableStats
from repro.wrappers.dialects import Dialect, QUIRK_AWARE

#: Statements `RelationalSource.query_log` keeps; older ones are dropped.
QUERY_LOG_LENGTH = 256

#: Statement shapes a source keeps prepared (LRU), `FAMILY` bindings of each:
#: never-repeating traffic must neither grow the process nor evict the rest.
PREPARED_STATEMENTS = 32


class _Prepared(NamedTuple):
    """One binding of a shape, ready to run again - and the model for others."""

    dialect: Dialect  # the shape was checked and `text` printed under this one
    text: str  # for `query_log`
    reads: tuple  # `CostModel.slot_reads` of the lifted constants, which `cost` rests on
    slots: tuple  # the literals `physical` holds for them
    cost: float  # the cost model's estimate
    physical: PhysicalOp
    tables: tuple  # every `Table` the plan reads ...
    state: tuple  # ... and `_state` of them when it was prepared


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
        #: statement shape (`repro.sql.shape`) -> its `_Prepared` bindings, a
        #: tuple replaced whole: other threads read it while one writes
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
        shape, _, values = lift(stmt)
        family = self._prepared.get(shape) or ()
        if family and family[0].dialect is not dialect:
            family = ()
        if not family:  # the contract reads no constant: a shape was checked once
            self._check_fits(stmt)
        prepared = next((known for known in family if known.slots == values), None)
        text = to_sql(stmt, dialect.print_options) if prepared is None else prepared.text
        self.query_log.append(text)
        if prepared is None or self._state(prepared.tables) != prepared.state:
            engine = self.engine
            reads = engine.cost_model.slot_reads(stmt)
            bound = self._rebound(family, reads, values)
            if bound is None:
                planted, slots = plant(stmt)
                logical = engine.logical_plan(planted)
                cost = engine.cost_model.estimate(logical).cost
                physical = engine.lower(logical)
                tables = tuple(_tables_read(physical))
                bound = slots, cost, physical, tables, self._state(tables)
            prepared = _Prepared(dialect, text, reads, *bound)
            others = [known for known in family if known.slots != values]
            self._prepared.put(shape, (prepared, *others[: FAMILY - 1]))
        result = prepared.physical.relation()
        self._account(metrics, prepared.cost * self.capabilities.time_per_cost_unit_s)
        return result

    def _rebound(self, family: tuple, reads: tuple, values: tuple) -> Optional[tuple]:
        """What follows `reads` in a `_Prepared`, from a member of `family` with
        these reads that is still current: its operators bound to `values` (to
        new literals, as `plant` makes them), its cost. None if there is none -
        or its operators hold a *copy* of a planted literal, which no swap reaches."""
        for model in family:
            if model.reads == reads and self._state(model.tables) == model.state:
                slots = tuple([
                    Literal(value.value) if value.__class__ is Literal else value for value in values
                ])
                found: set = set()
                physical = model.physical.bound_to(dict(zip(map(id, model.slots), slots)), found)
                if len(found) == len(slots):
                    return slots, model.cost, physical, model.tables, model.state
        return None

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
