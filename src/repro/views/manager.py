"""Materialized views over a federated engine.

A view is a `Definition` in the engine's catalog (`repro.federation.catalog`)
with a refresh policy, hence rows; `ViewManager` is the one writer of what
follows from the rows and of the matcher's `CompiledView`: both are derived
once (per definition, per refresh), and all of it goes when the name is
dropped. A name without a policy - a mediated table, a virtual view - holds
no rows and needs no manager: `catalog.define` + `engine.query`.
"""

from __future__ import annotations

import enum

from repro.common.errors import EIIError, SchemaError
from repro.common.relation import Relation
from repro.engine.executor import LocalEngine
from repro.federation.catalog import Definition
from repro.sql.parser import parse
from repro.storage.catalog import Database
from repro.storage.table import Table
from repro.views.catalog import UnsupportedShape, compile_view


class RefreshPolicy(enum.Enum):
    """When a materialized view's contents are recomputed."""

    MANUAL = "manual"  # only on explicit refresh()
    INTERVAL = "interval"  # refresh when older than `interval_s`
    ON_QUERY = "on_query"  # always recompute on read (live data)


class ViewManager:
    """Defines, reads and refreshes the materialized views of one engine.

    A materialized view serves stored rows and refreshes per its policy; the
    names live in the engine's catalog, beside the definitions that hold no
    rows. `clock` is injectable so benchmarks can drive simulated time
    deterministically; by default it is the engine's.
    """

    def __init__(self, engine, clock=None):
        self.engine = engine
        self.catalog = engine.catalog
        self.clock = clock or engine.clock

    # -- definition ---------------------------------------------------------------

    def define_materialized(
        self,
        name: str,
        sql: str,
        policy: RefreshPolicy = RefreshPolicy.MANUAL,
        interval_s: float = 60.0,
        refresh_now: bool = True,
    ) -> Definition:
        return self.register(self.compile(name, sql, policy, interval_s), refresh_now)

    def compile(
        self,
        name: str,
        sql: str,
        policy: RefreshPolicy = RefreshPolicy.MANUAL,
        interval_s: float = 60.0,
    ) -> Definition:
        """The record of a definition, not yet registered and without rows.

        The one place a view's SQL is parsed and compiled. A definition that
        does not bind, or that the matcher cannot use (DISTINCT, a union, a
        mediated name in FROM), is recorded as `unmatchable` and stays
        definable, readable by name and refreshable.
        """
        view = Definition(
            name, sql, policy, interval_s, clock=self.clock, statement=parse(sql)
        )
        try:
            view.tables = self.catalog.unfolding(view.statement)[1]
            view.compiled = compile_view(name, sql, view.statement, self.catalog)
        except EIIError as exc:
            view.unmatchable = str(exc)
        return view

    def register(self, view: Definition, refresh_now: bool = True) -> Definition:
        """Take a compiled record into the catalog under its name."""
        self.catalog.add(view)
        if refresh_now:
            self.refresh(view.name)
        return view

    def drop(self, name: str) -> None:
        self.catalog.drop(name)

    def names(self) -> list[str]:
        """Every defined name, with rows or without."""
        return sorted(self.catalog.definitions)

    def materialized_names(self) -> list[str]:
        """Materialized view names only (the matchable population)."""
        return sorted(view.name.lower() for view in self._views())

    def _views(self) -> list:
        """The records that hold rows, in definition order (copied first: a
        query thread's advisor may define one meanwhile)."""
        records = list(self.catalog.definitions.values())
        return [view for view in records if view.policy is not None]

    def view(self, name: str) -> Definition:
        view = self.catalog.definitions.get(name.lower())
        if view is None or view.policy is None:
            raise SchemaError(f"no materialized view {name!r}")
        return view

    def on_table_changed(self, table: str) -> list[str]:
        """Mark every view reading `table` dirty; returns their names.

        Looks at the views registered *now*, so views defined after a broker
        was attached — e.g. advisor-created ones — are covered.
        """
        wanted = table.lower()
        readers = [view for view in self._views() if wanted in view.tables]
        for view in readers:
            view.dirty = True
        return [view.name.lower() for view in readers]

    # -- reads ---------------------------------------------------------------------

    def read(self, name: str) -> Relation:
        """Read a materialized view, refreshing it per its policy."""
        view = self.view(name)
        view.serve_count += 1
        self.refresh_if_due(view, reading=True)
        return view.data

    def read_with_staleness(self, name: str) -> tuple[Relation, float]:
        relation = self.read(name)
        return relation, self.view(name).staleness(self.clock())

    # -- refresh ----------------------------------------------------------------------

    def refresh_if_due(self, view: Definition, reading: bool) -> None:
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

    def refresh(self, name: str) -> Definition:
        """Recompute a materialized view now."""
        view = self.view(name)
        result = self._query(view.sql)
        view.data = result.relation
        # sized by its execution, for the transfer every run ends with
        view.size_bytes = result.payload_bytes
        view.staged = None
        view.refreshed_at = self.clock()
        view.refresh_count += 1
        view.refresh_seconds += result.elapsed_seconds
        view.dirty = False
        return view

    def staged(self, view: Definition) -> LocalEngine:
        """`view.data` as a local engine over one table named after the view."""
        if view.staged is None:
            name, compiled = view.name.lower(), view.compiled
            columns = [(col.name, col.dtype) for col in view.data.schema.columns]
            have = {column.lower() for column, _ in columns}
            if compiled and not {out.lower() for out in compiled.outputs.values()} <= have:
                raise UnsupportedShape(f"rows of {view.name!r} lack a compiled output")
            db = Database(f"view_{name}")
            db.add_table(Table.build(name, columns, view.data.rows))
            view.staged = LocalEngine(db)
        return view.staged

    def mark_dirty(self, name: str) -> None:
        """Flag a view stale; the next read refreshes it (see invalidation)."""
        self.view(name).dirty = True

    def refresh_all(self) -> None:
        for view in self._views():
            self.refresh(view.name)

    def _query(self, sql: str):
        # refresh queries must not themselves be answered from views
        return self.engine.query(sql, use_views=False)
