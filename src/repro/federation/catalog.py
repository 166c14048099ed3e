"""The federation catalog: global table names over registered sources, and
the names that stand for a query - a mediated table, a virtual view, a
materialized view: one `Definition` each, the last with rows, in one namespace
beside the source tables. The binder resolves such a name here like any table;
`unfold` then puts the definition's own plan in its place.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

from repro.common.errors import EIIError, PlanError, SchemaError
from repro.common.schema import RelSchema
from repro.engine.logical import LogicalAlias, LogicalPlan, LogicalScan
from repro.engine.planner import bind_select
from repro.sources.base import DataSource
from repro.sql.ast import ColumnRef, Select, UnionSelect
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.storage.stats import TableStats

MAX_UNFOLD_DEPTH = 16


@dataclass
class SourceTable:
    """One globally-visible table: where it lives and what it looks like."""

    global_name: str
    local_name: str
    source: DataSource

    @property
    def schema(self) -> RelSchema:
        return self.source.schema_of(self.local_name)

    def stats(self) -> Optional[TableStats]:
        return self.source.stats_of(self.local_name)


@dataclass
class Definition:
    """A name that stands for a query and, when it has a refresh `policy` (a
    materialized view), its rows and their bookkeeping - all `ViewManager`'s to
    write; the answering layer only adds to `serve_count`."""

    name: str
    sql: str
    #: a `repro.views.RefreshPolicy`; None - a mediated table, a virtual view -
    #: never holds rows: the name always unfolds into the live query
    policy: Optional[object] = None
    interval_s: float = 60.0
    data: Optional[object] = None
    refreshed_at: Optional[float] = None
    refresh_count: int = 0
    serve_count: int = 0
    #: set by change notification (and by a re-definition underneath);
    #: cleared on refresh
    dirty: bool = False
    #: cumulative simulated seconds spent refreshing (the "ETL cost")
    refresh_seconds: float = 0.0
    #: the owning manager's clock, set at define time so staleness runs on
    #: engine time (SimClock under benchmarks), not wall-clock
    clock: Optional[Callable[[], float]] = None
    #: from the definition — the parsed statement
    statement: Optional[object] = None
    #: from the definition — lower-cased names its one unfolding scans: the
    #: source tables underneath and every definition on the way down
    tables: frozenset = frozenset()
    #: from the definition — what the matcher reads (a `CompiledView`), or None
    #: with `unmatchable` saying why (DISTINCT, a union, a mediated name, ...)
    compiled: Optional[object] = None
    unmatchable: Optional[str] = None
    #: from the rows — wire size of `data`, recorded by each refresh
    size_bytes: int = 0
    #: from the rows — `data` as a one-table local engine, built by the
    #: first serve after a refresh (`ViewManager.staged`)
    staged: Optional[object] = None

    def staleness(self, now: Optional[float] = None) -> float:
        """Seconds since the last refresh (inf if never refreshed), on the
        record's own clock - the manager's, hence the engine's - unless `now`
        is given; wall time only for a standalone record."""
        if self.refreshed_at is None:
            return float("inf")
        if now is None:
            now = self.clock() if self.clock is not None else time.time()
        return max(now - self.refreshed_at, 0.0)


class FederationCatalog:
    """Maps global table names to (source, local table), and definition names
    to their records.

    Also serves as the binder's TableResolver and the cost model's stats
    provider for federated planning, so the same optimizer machinery works
    unchanged over the virtual layout.
    """

    def __init__(self):
        self.sources: dict[str, DataSource] = {}
        self._tables: dict[str, SourceTable] = {}
        #: global table name (lower) -> replica SourceTables, in registration
        #: order — the order failover candidates are tried.
        self._replicas: dict[str, list[SourceTable]] = {}
        #: name (lower) -> `Definition`: every name that stands for a query
        self.definitions: dict[str, Definition] = {}
        #: bumped by every `add` / `drop`: what is cached of a statement naming
        #: a definition is keyed under it (`stamp`)
        self.generation = 0
        #: name (lower) -> its `unfolding`, replaced whole by `add` / `drop`
        self._unfolded: dict = {}

    def register_source(self, source: DataSource, rename: Optional[dict] = None) -> None:
        """Register every exported table of `source`.

        `rename` maps local → global names; unrenamed tables keep their
        local name, which must be globally unique.
        """
        if source.name in self.sources:
            raise SchemaError(f"source {source.name!r} already registered")
        self.sources[source.name] = source
        rename = {k.lower(): v for k, v in (rename or {}).items()}
        for local_name in source.table_names():
            global_name = rename.get(local_name.lower(), local_name)
            key = global_name.lower()
            if key in self._tables or key in self.definitions:
                other = self._tables.get(key)
                taken_by = f"source {other.source.name!r}" if other else "a definition"
                raise SchemaError(
                    f"global table name {global_name!r} already taken by {taken_by}"
                )
            self._tables[key] = SourceTable(global_name, local_name, source)

    def register_replica(self, source: DataSource, rename: Optional[dict] = None) -> None:
        """Register `source` as a replica of already-registered tables.

        Every exported table (after `rename`, local → global) must match an
        existing global table; the replica becomes a failover candidate the
        engine can re-bind a fetch to when the primary's circuit breaker is
        open or the primary keeps failing. Replicas never answer queries by
        default — the planner always binds to the primary.
        """
        if source.name in self.sources:
            raise SchemaError(f"source {source.name!r} already registered")
        rename = {k.lower(): v for k, v in (rename or {}).items()}
        staged = []
        for local_name in source.table_names():
            global_name = rename.get(local_name.lower(), local_name)
            key = global_name.lower()
            primary = self._tables.get(key)
            if primary is None:
                raise SchemaError(
                    f"replica table {global_name!r} from {source.name!r} has "
                    f"no primary; have: {sorted(self._tables)}"
                )
            if len(source.schema_of(local_name)) != len(primary.schema):
                raise SchemaError(
                    f"replica table {global_name!r} from {source.name!r} does "
                    f"not match the primary's schema width"
                )
            staged.append((key, SourceTable(primary.global_name, local_name, source)))
        self.sources[source.name] = source
        for key, table in staged:
            self._replicas.setdefault(key, []).append(table)

    def failover_candidates(self, primary_name: str, tables) -> list:
        """Alternate sources able to answer a fetch reading `tables`.

        Returns ``[(source, {global_lower: replica_local_name})]`` for every
        non-primary source exporting a replica of *every* table the fetch
        reads, in replica-registration order.
        """
        wanted = {str(table).lower() for table in tables}
        if not wanted:
            return []
        coverage: dict[str, dict] = {}
        order: list[str] = []
        for table in sorted(wanted):
            for replica in self._replicas.get(table, ()):
                name = replica.source.name
                if name not in coverage:
                    coverage[name] = {}
                    order.append(name)
                coverage[name][table] = replica.local_name
        return [
            (self.sources[name], coverage[name])
            for name in order
            if name != primary_name and len(coverage[name]) == len(wanted)
        ]

    def entry(self, global_name: str) -> SourceTable:
        entry = self._tables.get(global_name.lower())
        if entry is None:
            raise SchemaError(
                f"no federated table {global_name!r}; have: {sorted(self._tables)}"
            )
        return entry

    def has_table(self, global_name: str) -> bool:
        return global_name.lower() in self._tables

    def source_of(self, global_name: str) -> DataSource:
        return self.entry(global_name).source

    def table_names(self) -> list[str]:
        return sorted(entry.global_name for entry in self._tables.values())

    # -- names that stand for a query -------------------------------------------------

    def define(self, name: str, sql) -> Definition:
        """Define - or redefine - `name` as the query `sql` (text or `Select`): a
        mediated table, a virtual view. (`ViewManager` adds the ones with rows.)"""
        statement = parse(sql) if isinstance(sql, str) else sql
        if not isinstance(statement, (Select, UnionSelect)):
            raise SchemaError(f"definition of {name!r} must be a SELECT")
        return self.add(Definition(name, sql if statement is not sql else to_sql(sql), statement=statement))

    def add(self, record: Definition) -> Definition:
        """Take a record into the one namespace. A source table's name is taken,
        and so is a definition's when either of the two holds rows; a rows-less
        definition is replaced by another (re-definition)."""
        key = record.name.lower()
        old = self.definitions.get(key)
        if key in self._tables:
            raise SchemaError(f"{record.name!r} is a table of source {self.source_of(key).name!r}")
        if old is not None and (old.policy is not None or record.policy is not None):
            raise SchemaError(f"view {record.name!r} already defined")
        self.definitions[key] = record
        self._changed(key)
        return record

    def drop(self, name: str) -> None:
        if self.definitions.pop(name.lower(), None) is None:
            raise SchemaError(f"no view or mediated table {name!r}")
        self._changed(name.lower())

    def _changed(self, key: str) -> None:
        """`key` stands for another query now, or none. Nothing derived under the
        old one is served: plans and results by `generation`, unfoldings here,
        the rows of a view defined over it by going dirty."""
        self.generation += 1
        self._unfolded = {}
        for record in list(self.definitions.values()):
            if key in record.tables:
                record.dirty = True
                try:
                    record.tables = self.unfolding(record.statement)[1]
                except EIIError:
                    pass  # it names what is gone: its next refresh says so

    def fork(self) -> "FederationCatalog":
        """The same tables under a namespace of its own: what is defined there
        (a linted workspace's views) never reaches this catalog."""
        other = copy.copy(self)
        other.definitions, other._unfolded = dict(self.definitions), {}
        return other

    def stamp(self, statement) -> str:
        """Key prefix for what is cached of `statement`: empty unless it names a
        definition, then the generation - a re-definition orphans the entry.
        Kept on the (immutable) statement until this catalog's names change."""
        current = self._unfolded  # replaced whole by every `add` / `drop`
        known = statement.__dict__.get("stamp")
        if known is None or known[0] is not current:
            selects = getattr(statement, "selects", (statement,))
            names = {table.name.lower() for select in selects for table in select.tables()}
            stamp = "" if names.isdisjoint(self.definitions) else f"{self.generation}: "
            known = statement.__dict__["stamp"] = current, stamp
        return known[1]

    def unfold(self, plan: LogicalPlan, inside: tuple = (), names=None) -> LogicalPlan:
        """`plan` with each scan of a definition replaced by that definition's
        own plan, unfolded in turn, under the scan's binding: GAV reformulation.
        `inside` is the chain of definitions being unfolded around this call;
        `names` gains every name scanned on the way down."""
        if isinstance(plan, LogicalScan):
            key = plan.table_name.lower()
            inner, under = self._plan_of(key, inside) if key in self.definitions else (plan, ())
            if names is not None:
                names.add(key)
                names.update(under)
            return plan if inner is plan else LogicalAlias(inner, plan.binding)
        children = [self.unfold(child, inside, names) for child in plan.children]
        if all(new is old for new, old in zip(children, plan.children)):
            return plan
        return plan.with_children(children)

    def unfolding(self, statement, inside: tuple = ()) -> tuple:
        """``(plan, names)``: `statement` bound and unfolded, and the lower-cased
        names scanned on the way down - source tables and definitions alike."""
        within = SimpleNamespace(resolve_table=lambda name: self.resolve_table(name, inside))
        names: set = set()
        plan = self.unfold(bind_select(statement, within), inside, names)
        return plan, frozenset(names)

    def _plan_of(self, key: str, inside: tuple) -> tuple:
        """The `unfolding` of one definition, made once per generation; the
        cycle and depth guards read the caller's chain, not shared state."""
        memo = self._unfolded  # a re-definition meanwhile discards this dict
        known = memo.get(key)
        if known is None:
            if key in inside:
                raise PlanError(f"cyclic view definition involving {key!r}")
            if len(inside) >= MAX_UNFOLD_DEPTH:
                raise PlanError("view definitions nest too deeply (cycle?)")
            known = memo[key] = self.unfolding(self.definitions[key].statement, inside + (key,))
        return known

    def base_column(self, table: str, column: str) -> Optional[tuple]:
        """The source ``(table, column)`` that `column` of `table` is, through
        definitions that merely rename it: whose statistics an estimate on it
        reads (`CostModel.slot_reads`). None where that is not plain to see
        (computed, `*`, ambiguous): nothing is assumed."""
        for _ in range(MAX_UNFOLD_DEPTH + 1):
            record = self.definitions.get(table.lower())
            if record is None:
                return table, column
            select = getattr(record.statement, "selects", (record.statement,))[0]
            named = [item.expr for item in select.items if item.output_name.lower() == column.lower()]
            if len(named) != 1 or not isinstance(named[0], ColumnRef):
                return None
            qualifier = (named[0].qualifier or "").lower()
            owners = [t for t in select.tables() if not qualifier or t.binding.lower() == qualifier]
            if len(owners) != 1:
                return None
            table, column = owners[0].name, named[0].name
        return None

    # -- TableResolver protocol (for the binder) ---------------------------------

    def resolve_table(self, name: str, inside: tuple = ()) -> RelSchema:
        if name.lower() in self.definitions:
            return self._plan_of(name.lower(), inside)[0].schema
        return self.entry(name).schema

    # -- stats provider protocol (for the cost model) ------------------------------

    def table_stats(self, table_name: str) -> Optional[TableStats]:
        """Statistics of a source table; a definition has none of its own."""
        if table_name.lower() in self.definitions:
            return None
        return self.entry(table_name).stats()
