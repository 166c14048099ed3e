"""Generic node storage for semi-structured documents."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.common.errors import CapabilityError, EIIError
from repro.common.relation import Relation
from repro.common.schema import Column, RelSchema
from repro.common.types import DataType, coerce_value
from repro.sources.base import SCAN_ONLY, DataSource, SourceCapabilities
from repro.sql.ast import Select
from repro.storage.stats import TableStats
from repro.storage.table import Table


class NodeStore:
    """Documents decomposed into (id, doc, parent, name, kind, value, position) nodes.

    `kind` is "object", "array" or "value". Scalars are stored as strings
    (schema-less!); typing happens at read time when a client imposes a
    view. This mirrors NETMARK's node-edge decomposition of XML/Office
    documents inside an RDBMS.
    """

    def __init__(self, name: str = "netmark"):
        self.name = name
        self.nodes = Table.build(
            "nodes",
            [
                ("id", DataType.INT),
                ("doc", DataType.INT),
                ("parent", DataType.INT),
                ("name", DataType.STRING),
                ("kind", DataType.STRING),
                ("value", DataType.STRING),
                ("position", DataType.INT),
            ],
            primary_key=["id"],
        )
        self.nodes.create_index("doc")
        self.nodes.create_index("parent")
        self._ids = itertools.count(1)
        self._docs: dict[int, str] = {}  # doc id -> document name

    # -- ingest ---------------------------------------------------------------

    def ingest(self, doc_name: str, document) -> int:
        """Store a dict/list/scalar tree; returns the document id."""
        doc_id = next(self._ids)
        self._docs[doc_id] = doc_name
        self._store(doc_id, None, doc_name, document, 0)
        return doc_id

    def _store(self, doc_id, parent_id, name, value, position) -> int:
        node_id = next(self._ids)
        if isinstance(value, dict):
            self.nodes.insert((node_id, doc_id, parent_id, name, "object", None, position))
            for child_pos, (key, child) in enumerate(value.items()):
                self._store(doc_id, node_id, key, child, child_pos)
        elif isinstance(value, (list, tuple)):
            self.nodes.insert((node_id, doc_id, parent_id, name, "array", None, position))
            for child_pos, child in enumerate(value):
                self._store(doc_id, node_id, name, child, child_pos)
        else:
            rendered = None if value is None else _render(value)
            self.nodes.insert((node_id, doc_id, parent_id, name, "value", rendered, position))
        return node_id

    # -- introspection -----------------------------------------------------------

    def document_ids(self) -> list[int]:
        return sorted(self._docs)

    def document_name(self, doc_id: int) -> str:
        return self._docs[doc_id]

    def document_count(self) -> int:
        return len(self._docs)

    def reconstruct(self, doc_id: int):
        """Rebuild the Python tree of a document (values come back as strings)."""
        roots = [
            row
            for row in self.nodes.lookup("doc", doc_id)
            if row[2] is None
        ]
        if not roots:
            raise EIIError(f"no document {doc_id}")
        return self._rebuild(roots[0])

    def _rebuild(self, node_row):
        node_id, _, _, _, kind, value, _ = node_row
        if kind == "value":
            return value
        children = sorted(self.nodes.lookup("parent", node_id), key=lambda r: r[6])
        if kind == "array":
            return [self._rebuild(child) for child in children]
        return {child[3]: self._rebuild(child) for child in children}

    # -- search ---------------------------------------------------------------------

    def keyword_search(self, term: str) -> list[int]:
        """Document ids whose node names or values contain `term` (case-fold)."""
        needle = term.lower()
        hits: set[int] = set()
        for row in self.nodes.rows():
            _, doc, _, name, _, value, _ = row
            if name and needle in name.lower():
                hits.add(doc)
            elif value and needle in value.lower():
                hits.add(doc)
        return sorted(hits)

    def path_values(self, doc_id: int, path: str) -> list[Optional[str]]:
        """Values at a slash path (`"contact/email"`); arrays fan out."""
        segments = [segment for segment in path.split("/") if segment]
        current = [
            row for row in self.nodes.lookup("doc", doc_id) if row[2] is None
        ]
        for segment in segments:
            next_rows = []
            for row in current:
                for child in self.nodes.lookup("parent", row[0]):
                    if child[3] == segment or child[4] == "array" and child[3] == segment:
                        next_rows.append(child)
                    # descend through array containers transparently
            expanded = []
            for row in next_rows:
                if row[4] == "array":
                    expanded.extend(self.nodes.lookup("parent", row[0]))
                else:
                    expanded.append(row)
            current = expanded
        return [row[5] for row in current if row[4] == "value"]

    # -- schema-on-read ---------------------------------------------------------------

    def schema_on_read(
        self,
        view: Sequence[tuple],
        doc_filter: Optional[str] = None,
        explode: Optional[str] = None,
    ) -> Relation:
        """Impose a relational view over documents.

        `view` is `[(column_name, path, DataType), ...]`; missing paths
        yield NULL, multi-valued paths take the first value. `doc_filter`
        restricts to documents whose name starts with the prefix.

        Without `explode`, one row per document. With `explode=<path to a
        repeated element>`, one row per element under that path: column
        paths resolve relative to the element first, falling back to the
        document root — so `("sku", "sku", …)` reads from each order line
        while `("customer", "customer/name", …)` reads from the document.
        """
        columns = [Column(name, dtype) for name, _, dtype in view]
        schema = RelSchema([Column("doc_id", DataType.INT)] + columns)
        rows = []
        for doc_id in self.document_ids():
            if doc_filter and not self._docs[doc_id].startswith(doc_filter):
                continue
            if explode is None:
                contexts = [None]
            else:
                contexts = self._elements_at(doc_id, explode)
                if not contexts:
                    continue
            for context in contexts:
                row: list = [doc_id]
                for _, path, dtype in view:
                    raw = self._resolve(doc_id, context, path)
                    row.append(
                        coerce_value(raw, dtype) if raw is not None else None
                    )
                rows.append(tuple(row))
        return Relation(schema, rows)

    def _elements_at(self, doc_id: int, path: str) -> list:
        """Node rows of the repeated elements at `path` (array children)."""
        segments = [segment for segment in path.split("/") if segment]
        current = [
            row for row in self.nodes.lookup("doc", doc_id) if row[2] is None
        ]
        for segment in segments:
            matched = []
            for row in current:
                for child in self.nodes.lookup("parent", row[0]):
                    if child[3] == segment:
                        matched.append(child)
            current = matched
        out = []
        for row in current:
            if row[4] == "array":
                out.extend(
                    sorted(self.nodes.lookup("parent", row[0]), key=lambda r: r[6])
                )
            else:
                out.append(row)
        return out

    def _resolve(self, doc_id: int, context, path: str) -> Optional[str]:
        """Resolve a view path: element-relative first, then document root."""
        if context is not None:
            values = self._values_below(context, path)
            if values:
                return values[0]
        values = self.path_values(doc_id, path)
        return values[0] if values else None

    def _values_below(self, node_row, path: str) -> list:
        segments = [segment for segment in path.split("/") if segment]
        current = [node_row]
        for segment in segments:
            matched = []
            for row in current:
                for child in self.nodes.lookup("parent", row[0]):
                    if child[3] == segment:
                        matched.append(child)
            expanded = []
            for row in matched:
                if row[4] == "array":
                    expanded.extend(self.nodes.lookup("parent", row[0]))
                else:
                    expanded.append(row)
            current = expanded
        return [row[5] for row in current if row[4] == "value"]


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class DocumentSource(DataSource):
    """Expose schema-on-read views of a NodeStore as scan-only federated tables.

    Registering a view costs one client-side declaration — no mediated
    schema work, no source DBA — which is exactly the integration-economics
    contrast of experiment E4.
    """

    def __init__(self, name: str, store: NodeStore):
        super().__init__(
            name,
            SourceCapabilities(dialect=SCAN_ONLY, per_query_overhead_s=0.01),
        )
        self.store = store
        self._views: dict[str, tuple] = {}  # table -> (view, doc_filter, explode)

    def define_view(
        self,
        table: str,
        view: Sequence[tuple],
        doc_filter: Optional[str] = None,
        explode: Optional[str] = None,
    ) -> None:
        self._views[table.lower()] = (list(view), doc_filter, explode)

    def table_names(self) -> list[str]:
        return sorted(self._views)

    def schema_of(self, table: str):
        return self._materialize(table).schema

    def stats_of(self, table: str) -> Optional[TableStats]:
        relation = self._materialize(table)
        return TableStats.collect(relation.schema, relation.rows)

    def execute_select(self, stmt: Select, metrics=None) -> Relation:
        self._check_access()
        self._check_fits(stmt)
        table_ref = stmt.from_tables[0]
        relation = self._materialize(table_ref.name)
        result = self._projected(stmt, relation.schema.with_qualifier(table_ref.binding), relation.rows)
        self._account(
            metrics,
            self.store.document_count() * self.capabilities.time_per_cost_unit_s,
        )
        return result

    def _materialize(self, table: str) -> Relation:
        entry = self._views.get(table.lower())
        if entry is None:
            raise CapabilityError(f"{self.name!r} has no view {table!r}")
        view, doc_filter, explode = entry
        return self.store.schema_on_read(view, doc_filter, explode)
