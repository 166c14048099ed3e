"""Automatic change notification and view invalidation.

Rosenthal (§7): programmers hand-code Read/Notify/Update methods; "It
should be possible to generate Notify methods automatically." This module
does exactly that for the read side: a `ChangeNotifier` watches source
tables (by their monotonic version counters) and announces each change on
the EAI broker (`repro.eai.table_events`); every materialized view's table
dependencies are derived *from its own definition*, so views go stale the moment
an underlying table changes — no hand-written plumbing per view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.eai.broker import MessageBroker
from repro.eai.table_events import publish_table_changed, subscribe_table_changes
from repro.sql.parser import parse


def table_dependencies(sql) -> set[str]:
    """The lower-cased names a SELECT (or union) has in FROM, as written.

    `sql` is the statement's text, or the statement already parsed. What a
    name that stands for a query reads underneath is the catalog's to say
    (`FederationCatalog.unfolding`, kept on a view as `tables`).
    """
    statement = parse(sql) if isinstance(sql, str) else sql
    selects = getattr(statement, "selects", (statement,))
    return {table.name.lower() for select in selects for table in select.tables()}


@dataclass
class _Watch:
    name: str
    table: object  # repro.storage.Table
    last_version: int


class ChangeNotifier:
    """Publishes change events for watched tables (the generated Notify).

    Real sources would push; our storage tables expose a monotone `version`
    counter, so the notifier polls it. One `poll()` sweep publishes one
    change event per table that changed since the last sweep.
    """

    def __init__(self, broker: Optional[MessageBroker] = None):
        self.broker = broker or MessageBroker()
        self._watches: dict[str, _Watch] = {}

    def watch(self, name: str, table) -> None:
        self._watches[name.lower()] = _Watch(name.lower(), table, table.version)

    def watch_database(self, db) -> None:
        for table in db.tables():
            self.watch(table.name, table)

    def poll(self) -> list[str]:
        """Publish events for changed tables; returns the changed names."""
        changed = []
        for watch in self._watches.values():
            if watch.table.version != watch.last_version:
                watch.last_version = watch.table.version
                publish_table_changed(self.broker, watch.name, watch.table.version)
                changed.append(watch.name)
        return changed


def wire_invalidation(manager, broker: MessageBroker, eager: bool = False) -> dict:
    """Subscribe a `ViewManager` no engine drives to table-change events.

    (An engine's own manager is wired by `FederatedEngine.attach_invalidation`.)
    Dependencies come from each view's definition — nothing is declared by
    hand, and a view over a mediated name depends on the source tables
    underneath. `eager=True` refreshes immediately on notification; the
    default marks the view dirty so the next read refreshes (cheaper under
    bursts). Returns `{view: {tables}}`.
    """

    def on_change(table: str) -> None:
        for name in manager.on_table_changed(table):
            if eager:
                manager.refresh(name)

    subscribe_table_changes(broker, on_change)
    return {name: manager.view(name).tables for name in manager.materialized_names()}
