"""Materialized query results: a schema plus a list of tuples."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.common.errors import SchemaError
from repro.common.schema import RelSchema
from repro.common.types import rows_size


class Batch(list):
    """Rows, plus what their producer vouches: `kinds` is None or, per column,
    None, a frozenset of at least every exact `type(value)` the column holds,
    or a callable yielding either (a table column's kinds, swept on demand):
    read it with `repro.common.types.column_vouches`. It describes the rows as built: whoever edits the list drops it."""

    kinds = None


def vouched(rows: list, kinds) -> list:
    """`rows`, the caller's own list, as a `Batch` carrying `kinds` (one
    pointer copy unless it is a `Batch` already), if there is a vouch."""
    if kinds is None:
        return rows
    if type(rows) is not Batch:
        rows = Batch(rows)
    rows.kinds = kinds
    return rows


class Relation:
    """An ordered bag of rows with a `RelSchema`.

    This is the universal result type: local engine results, component-query
    results shipped over the simulated network, warehouse extracts and search
    hits all materialize as `Relation`s.
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: RelSchema, rows: Iterable[Sequence]):
        self.schema = schema
        self.rows: list[tuple] = list(map(tuple, rows))
        width = len(schema)
        if not set(map(len, self.rows)) <= {width}:
            ragged = next(row for row in self.rows if len(row) != width)
            raise SchemaError(f"row width {len(ragged)} does not match schema width {width}")

    @classmethod
    def adopt(cls, schema: RelSchema, rows: list) -> "Relation":
        """Take over `rows` - tuples of the schema's width that an operator
        just built - with neither a copy nor a check; a `Batch` keeps its vouch."""
        relation = cls.__new__(cls)
        relation.schema, relation.rows = schema, rows
        return relation

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.schema == other.schema
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Relation({len(self.rows)} rows, {self.schema!r})"

    def column_values(self, name: str, qualifier: Optional[str] = None) -> list:
        index = self.schema.index_of(name, qualifier)
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict]:
        """Rows as dicts keyed by bare column name (for examples and tests)."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    def sorted(self) -> "Relation":
        """Rows in a canonical order (None sorts first); for set comparison."""

        def key(row):
            return tuple((value is not None, str(type(value)), value) for value in row)

        return Relation(self.schema, sorted(self.rows, key=key))

    def size_bytes(self) -> int:
        """Serialized size under the wire model (see `repro.common.types`)."""
        return rows_size(self.rows)

    def pretty(self, limit: int = 20) -> str:
        """Render as an aligned text table (for examples and EXPLAIN output)."""
        headers = self.schema.qualified_names
        shown = self.rows[:limit]
        cells = [[_render(value) for value in row] for row in shown]
        widths = [
            max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
            for i, header in enumerate(headers)
        ]
        lines = [
            " | ".join(header.ljust(width) for header, width in zip(headers, widths)),
            "-+-".join("-" * width for width in widths),
        ]
        for row in cells:
            lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)


def _render(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
