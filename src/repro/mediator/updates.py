"""Generated update methods: view updates compiled into EAI sagas.

Rosenthal (§7): programmers hand-code Update methods in 3GL+SQL; "Given
the choices, the update method should be generated automatically." Carey
(§4): updates through a virtual view are really business processes needing
compensation. `UpdateSagaGenerator` combines both: given a GAV view whose
columns have direct base-column lineage, an `UPDATE view SET … WHERE key =
…` request compiles into a `ProcessDefinition` — one step per underlying
source table, each with an automatically generated compensation that
restores the previous rows if a later step fails.

Key translation uses the view's join graph: equi-join conditions induce an
equivalence class of columns carrying the key value, so a view keyed on
`cust_id` (= crm `c.id`) updates sales rows through `o.cust_id` without
any hand-written mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import PlanError
from repro.eai.process import ProcessDefinition, Step
from repro.eai.table_events import publish_table_changed
from repro.sql.ast import ColumnRef, Select
from repro.sql.exprutil import equi_join_sides, split_conjuncts


@dataclass(frozen=True)
class _Lineage:
    """Where one view column comes from: a base table binding + column."""

    binding: str  # table alias inside the view definition
    table: str  # global table name
    column: str  # base column name


class UpdateSagaGenerator:
    """Compiles view updates into compensating process definitions.

    Supported views: single SELECT over base tables where every exposed
    column is a bare column reference (the common "single view of X"
    shape). Computed columns have no unique inverse and are rejected —
    the honest limitation of view updating.
    """

    def __init__(self, catalog, broker=None):
        #: the catalog holding both the views (its definitions) and the tables
        self.catalog = catalog
        #: when given, every step (and every compensation) that mutates a
        #: source table announces the change — the same event
        #: `ChangeNotifier` emits — so view staleness and mediator-cache
        #: invalidation react to writes through this path immediately,
        #: without waiting for a notifier poll sweep.
        self.broker = broker

    # -- lineage analysis ---------------------------------------------------------

    def lineage_of(self, view_name: str) -> dict:
        """Map each view output column (lower) to its `_Lineage`."""
        record = self.catalog.definitions.get(view_name.lower())
        if record is None:
            raise PlanError(f"no mediated view {view_name!r}")
        definition = record.statement
        if not isinstance(definition, Select):
            raise PlanError("only plain SELECT views are updatable")
        binding_to_table = {
            ref.binding.lower(): ref.name for ref in definition.tables()
        }
        lineage: dict = {}
        for item in definition.items:
            if not isinstance(item.expr, ColumnRef):
                continue  # computed column: not updatable
            binding = (item.expr.qualifier or "").lower()
            if binding not in binding_to_table:
                # unqualified ref: resolvable only with a single table
                if len(binding_to_table) == 1:
                    binding = next(iter(binding_to_table))
                else:
                    continue
            lineage[item.output_name.lower()] = _Lineage(
                binding, binding_to_table[binding], item.expr.name
            )
        return lineage

    def _key_class(self, view_name: str, key_lineage: _Lineage) -> dict:
        """binding -> column carrying the key value, via equi-join closure."""
        definition = self.catalog.definitions[view_name.lower()].statement
        conjuncts = []
        if definition.where is not None:
            conjuncts.extend(split_conjuncts(definition.where))
        for join in definition.joins:
            if join.condition is not None:
                conjuncts.extend(split_conjuncts(join.condition))
        # union-find over (binding, column) pairs connected by equi joins
        parent: dict = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for conjunct in conjuncts:
            sides = equi_join_sides(conjunct)
            if sides is None:
                continue
            a, b = sides
            union(
                ((a.qualifier or "").lower(), a.name.lower()),
                ((b.qualifier or "").lower(), b.name.lower()),
            )
        key_node = (key_lineage.binding, key_lineage.column.lower())
        key_root = find(key_node)
        out = {key_lineage.binding: key_lineage.column}
        for node in list(parent):
            if find(node) == key_root:
                binding, column = node
                out.setdefault(binding, column)
        return out

    # -- saga generation --------------------------------------------------------------

    def generate(
        self,
        view_name: str,
        assignments: dict,
        key_column: str,
        key_value,
    ) -> ProcessDefinition:
        """Build the saga for `UPDATE view SET assignments WHERE key = value`."""
        lineage = self.lineage_of(view_name)
        key_lineage = lineage.get(key_column.lower())
        if key_lineage is None:
            raise PlanError(
                f"view {view_name!r} key column {key_column!r} has no base lineage"
            )
        key_by_binding = self._key_class(view_name, key_lineage)

        # group assignments by owning base table
        per_table: dict = {}
        for view_column, new_value in assignments.items():
            target = lineage.get(view_column.lower())
            if target is None:
                raise PlanError(
                    f"view column {view_column!r} is computed or unknown; "
                    f"its update cannot be generated"
                )
            per_table.setdefault(target.binding, []).append((target, new_value))

        steps = []
        for binding, targets in sorted(per_table.items()):
            table_name = targets[0][0].table
            local_key = key_by_binding.get(binding)
            if local_key is None:
                raise PlanError(
                    f"table {table_name!r} shares no join key with "
                    f"{key_column!r}; update cannot be routed"
                )
            steps.append(
                self._table_step(table_name, local_key, key_value, targets)
            )
        return ProcessDefinition(f"update_{view_name}", steps)

    def _notify_changed(self, table_name: str, table) -> None:
        if self.broker is not None:
            publish_table_changed(self.broker, table_name, table.version)

    def _table_step(self, table_name, local_key, key_value, targets) -> Step:
        entry = self.catalog.entry(table_name)
        source = entry.source
        db = getattr(source, "db", None)
        if db is None:
            raise PlanError(
                f"source {source.name!r} is not updatable (no database handle)"
            )
        table = db.table(entry.local_name)
        key_position = table.schema.index_of(local_key)
        set_positions = [
            (table.schema.index_of(target.column), value)
            for target, value in targets
        ]
        saved_key = f"saved_{table_name}"

        def action(context: dict):
            old_rows = [
                row for row in table.rows() if row[key_position] == key_value
            ]
            context[saved_key] = old_rows

            def updater(row):
                new_row = list(row)
                for position, value in set_positions:
                    new_row[position] = value
                return new_row

            changed = table.update_where(
                lambda row: row[key_position] == key_value, updater
            )
            if changed:
                self._notify_changed(table_name, table)
            return changed

        def compensate(context: dict):
            # Matching rows keep their heap slots across update_where, so the
            # saved images restore positionally in the same scan order.
            saved = context.get(saved_key, [])
            if not saved:
                return
            iterator = iter(saved)
            table.update_where(
                lambda row: row[key_position] == key_value,
                lambda _row: next(iterator),
            )
            self._notify_changed(table_name, table)

        columns = ", ".join(target.column for target, _ in targets)

        return Step(
            name=f"update {table_name}({columns})",
            action=action,
            compensate=compensate,
        )
