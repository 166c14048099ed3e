"""Virtual and materialized views over a federated engine.

`MaterializedView` is the one record of a view and `ViewManager` its one
owner: what follows from the *definition* (parsed statement, base tables,
the matcher's `CompiledView`) is derived once in `compile`, what follows
from the *rows* (their wire size, the local table compensations run on) at
most once per refresh, and all of it goes when the view is dropped.
"""

from __future__ import annotations

import enum
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.errors import EIIError, SchemaError
from repro.common.relation import Relation
from repro.engine.executor import LocalEngine
from repro.sql.parser import parse
from repro.storage.catalog import Database
from repro.storage.table import Table
from repro.views.catalog import CompiledView, UnsupportedShape, compile_view
from repro.views.invalidation import table_dependencies


class RefreshPolicy(enum.Enum):
    """When a materialized view's contents are recomputed."""

    MANUAL = "manual"  # only on explicit refresh()
    INTERVAL = "interval"  # refresh when older than `interval_s`
    ON_QUERY = "on_query"  # always recompute on read (live data)


@dataclass
class MaterializedView:
    """One materialized view: definition, compiled shape, rows, bookkeeping.

    `ViewManager` writes every field; the answering layer only adds to
    `serve_count` when it serves a query from the rows.
    """

    name: str
    sql: str
    policy: RefreshPolicy
    interval_s: float = 60.0
    data: Optional[Relation] = None
    refreshed_at: Optional[float] = None
    refresh_count: int = 0
    serve_count: int = 0
    #: set by change-notification wiring; cleared on refresh
    dirty: bool = False
    #: cumulative simulated seconds spent refreshing (the "ETL cost")
    refresh_seconds: float = 0.0
    #: the owning manager's clock, set at define time so staleness runs on
    #: engine time (SimClock under benchmarks), not wall-clock
    clock: Optional[Callable[[], float]] = None
    #: from the definition — the parsed statement (None: `sql` does not parse)
    statement: Optional[object] = None
    #: from the definition — lower-cased base tables the view reads
    tables: frozenset = frozenset()
    #: from the definition — what the matcher reads, or None with
    #: `unmatchable` saying why (DISTINCT, a union, LIMIT, no catalog, ...)
    compiled: Optional[CompiledView] = None
    unmatchable: Optional[str] = None
    #: from the rows — wire size of `data`, recorded by each refresh
    size_bytes: int = 0
    #: from the rows — `data` as a one-table local engine, built by the
    #: first serve after a refresh (`ViewManager.staged`)
    staged: Optional[LocalEngine] = None

    def staleness(self, now: Optional[float] = None) -> float:
        """Seconds since the last refresh (inf if never refreshed).

        With no explicit `now`, reads the view's own clock — the manager's
        (and hence the engine's) clock — falling back to wall time only for
        standalone instances. Historically this always used `time.time`,
        which made INTERVAL refresh and staleness accounting
        non-deterministic whenever the engine ran on a `SimClock`.
        """
        if self.refreshed_at is None:
            return float("inf")
        if now is None:
            now = self.clock() if self.clock is not None else time.time()
        return max(now - self.refreshed_at, 0.0)


class ViewManager:
    """Registry of virtual and materialized views over one federated engine.

    A *virtual* view re-executes its query on every read (live data, full
    federation cost each time). A *materialized* view serves stored rows
    and refreshes per its policy. `clock` is injectable so benchmarks can
    drive simulated time deterministically.
    """

    def __init__(self, engine, clock=None):
        self.engine = engine
        # default to the engine's clock so staleness is deterministic under
        # a SimClock; an explicit clock argument still wins
        self.clock = clock or getattr(engine, "clock", None) or time.time
        self._virtual: dict[str, str] = {}
        self._materialized: dict[str, MaterializedView] = {}
        self._mediated_schema = None
        self._supports_use_views = (
            "use_views" in inspect.signature(engine.query).parameters
        )

    # -- definition ---------------------------------------------------------------

    def define_virtual(self, name: str, sql: str) -> None:
        self._check_free(name)
        self._virtual[name.lower()] = sql

    def define_materialized(
        self,
        name: str,
        sql: str,
        policy: RefreshPolicy = RefreshPolicy.MANUAL,
        interval_s: float = 60.0,
        refresh_now: bool = True,
    ) -> MaterializedView:
        return self.register(self.compile(name, sql, policy, interval_s), refresh_now)

    def compile(
        self,
        name: str,
        sql: str,
        policy: RefreshPolicy = RefreshPolicy.MANUAL,
        interval_s: float = 60.0,
    ) -> MaterializedView:
        """The record of a definition, not yet registered and without rows.

        The one place a view's SQL is parsed and compiled. It never raises:
        a definition the matcher cannot use — or one over an engine with no
        catalog to match against — is recorded as `unmatchable` and stays
        definable, readable and refreshable.
        """
        view = MaterializedView(name, sql, policy, interval_s, clock=self.clock)
        try:
            view.statement = parse(sql)
            view.tables = self._tables_of(view)
            catalog = getattr(self.engine, "catalog", None)
            if catalog is None:
                raise UnsupportedShape("the view's engine has no catalog")
            view.compiled = compile_view(name, sql, view.statement, catalog)
        except EIIError as exc:
            view.unmatchable = str(exc)
        return view

    def register(
        self, view: MaterializedView, refresh_now: bool = True
    ) -> MaterializedView:
        """Take a compiled record into the registry under its name."""
        self._check_free(view.name)
        self._materialized[view.name.lower()] = view
        if refresh_now:
            self.refresh(view.name)
        return view

    def drop(self, name: str) -> None:
        key = name.lower()
        if key in self._virtual:
            del self._virtual[key]
        elif key in self._materialized:
            del self._materialized[key]
        else:
            raise SchemaError(f"no view {name!r}")

    def names(self) -> list[str]:
        return sorted(list(self._virtual) + list(self._materialized))

    def materialized_names(self) -> list[str]:
        """Materialized view names only (the matchable population)."""
        return sorted(self._materialized)

    def view(self, name: str) -> MaterializedView:
        view = self._materialized.get(name.lower())
        if view is None:
            raise SchemaError(f"no materialized view {name!r}")
        return view

    def dependencies(self, name: str) -> frozenset:
        """Base tables the named materialized view reads."""
        return self.view(name).tables

    def expand_dependencies(self, mediated_schema) -> dict:
        """Follow mediated views down to source tables, now and for later
        definitions; returns ``{view: tables}`` (see `wire_invalidation`)."""
        self._mediated_schema = mediated_schema
        for view in self._materialized.values():
            view.tables = self._tables_of(view)
        return {name: view.tables for name, view in self._materialized.items()}

    def on_table_changed(self, table: str) -> list[str]:
        """Mark every view reading `table` dirty; returns their names.

        Looks at the views registered *now*, so views defined after a broker
        was attached — e.g. advisor-created ones — are covered.
        """
        wanted = table.lower()
        readers = [
            name for name, view in self._materialized.items() if wanted in view.tables
        ]
        for name in readers:
            self.mark_dirty(name)
        return readers

    # -- reads ---------------------------------------------------------------------

    def read(self, name: str) -> Relation:
        """Read a view, refreshing a materialized one per its policy."""
        key = name.lower()
        if key in self._virtual:
            return self._run(self._virtual[key])
        view = self.view(name)
        view.serve_count += 1
        self.refresh_if_due(view, reading=True)
        return view.data

    def read_with_staleness(self, name: str) -> tuple[Relation, float]:
        """Read plus the staleness (0 for virtual/live reads)."""
        key = name.lower()
        if key in self._virtual:
            return self._run(self._virtual[key]), 0.0
        relation = self.read(name)
        return relation, self.view(name).staleness(self.clock())

    # -- refresh ----------------------------------------------------------------------

    def refresh_if_due(self, view: MaterializedView, reading: bool) -> None:
        """The one refresh decision, for `read()` and for query answering.

        ON_QUERY always refreshes; INTERVAL when never refreshed, dirty or
        older than `interval_s`; MANUAL when never refreshed or dirty — but
        only for an explicit `read()` (``reading``): a query matched against
        a dirty MANUAL view is answered by federation instead, and the
        answering layer records a view fallback.
        """
        stale = view.data is None or view.dirty
        if view.policy is RefreshPolicy.ON_QUERY:
            due = True
        elif view.policy is RefreshPolicy.INTERVAL:
            due = stale or view.staleness() > view.interval_s
        else:
            due = stale and reading
        if due:
            self.refresh(view.name)

    def refresh(self, name: str) -> MaterializedView:
        """Recompute a materialized view now."""
        view = self.view(name)
        result = self._query(view.sql)
        view.data = getattr(result, "relation", result)
        # a federated answer was sized by its execution; bare rows are sized here
        sized = getattr(result, "payload_bytes", None)
        view.size_bytes = view.data.size_bytes() if sized is None else sized
        view.staged = None
        view.refreshed_at = self.clock()
        view.refresh_count += 1
        view.refresh_seconds += getattr(result, "elapsed_seconds", 0.0)
        view.dirty = False
        return view

    def staged(self, view: MaterializedView) -> LocalEngine:
        """`view.data` as a local engine over one table named after the view."""
        if view.staged is None:
            compiled = view.compiled
            columns = [(col.name, col.dtype) for col in view.data.schema.columns]
            have = {name.lower() for name, _ in columns}
            if not {out.lower() for out in compiled.outputs.values()} <= have:
                raise UnsupportedShape(f"rows of {view.name!r} lack a compiled output")
            db = Database(f"view_{compiled.name}")
            db.add_table(Table.build(compiled.name, columns, view.data.rows))
            view.staged = LocalEngine(db)
        return view.staged

    def mark_dirty(self, name: str) -> None:
        """Flag a view stale; the next read refreshes it (see invalidation)."""
        self.view(name).dirty = True

    def refresh_all(self) -> None:
        for name in list(self._materialized):
            self.refresh(name)

    # -- internals ----------------------------------------------------------------------

    def _check_free(self, name: str) -> None:
        key = name.lower()
        if key in self._virtual or key in self._materialized:
            raise SchemaError(f"view {name!r} already defined")

    def _tables_of(self, view: MaterializedView) -> frozenset:
        # a statement that did not parse (None) reads no table
        return frozenset(table_dependencies(view.statement, self._mediated_schema))

    def _query(self, sql: str):
        # refresh queries must not themselves be answered from views
        if self._supports_use_views:
            return self.engine.query(sql, use_views=False)
        return self.engine.query(sql)

    def _run(self, sql: str) -> Relation:
        result = self._query(sql)
        return getattr(result, "relation", result)
