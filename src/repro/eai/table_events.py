"""Table-change events: the one module that knows their topic and payload.

A write to a source table is announced on the broker as
``table.<name>.changed`` with ``{"table": <name>, "version": <n>}``, the
name lower-cased. `ChangeNotifier.poll` and the generated update sagas
publish through `publish_table_changed`; caches, calibrations and views
listen through `subscribe_table_changes`, which hands the handler the
table's name and nothing else.
"""

from __future__ import annotations

from typing import Callable

_PREFIX, _SUFFIX = "table.", ".changed"


def publish_table_changed(broker, table: str, version: int) -> None:
    """Announce that `table` now stands at `version`."""
    name = table.lower()
    broker.publish(f"{_PREFIX}{name}{_SUFFIX}", {"table": name, "version": version})


def subscribe_table_changes(broker, handler: Callable[[str], None]) -> None:
    """Call ``handler(table)`` — lower-cased — for every announced change.

    The name is read off the topic, which every such message has, so a
    hand-published event with a sparse payload is heard like any other.
    """

    def on_message(message) -> None:
        handler(message.topic[len(_PREFIX) : -len(_SUFFIX)].lower())

    broker.subscribe(f"{_PREFIX}*{_SUFFIX}", on_message)
