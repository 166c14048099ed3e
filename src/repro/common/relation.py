"""Materialized query results: a schema plus a list of tuples."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.common.errors import SchemaError
from repro.common.schema import RelSchema
from repro.common.types import columns_size, rows_size


class Batch(list):
    """Rows, plus what their producer knows of them. `kinds` is None or, per
    column, None or a frozenset of at least every exact `type(value)` the
    column holds (`kinds[p]`; a scan's are its table's `Mirror`). `columns`
    is None or the same rows column-major: `columns.column(p)` is column
    `p`'s values in row order, or None once it cannot say. Both describe
    the rows as built: whoever edits the list drops them."""

    kinds = None
    columns = None


def vouched(rows: list, kinds) -> list:
    """`rows`, the caller's own list, as a `Batch` carrying `kinds` (one
    pointer copy unless it is a `Batch` already), if there is a vouch."""
    if kinds is None:
        return rows
    if type(rows) is not Batch:
        rows = Batch(rows)
    rows.kinds = kinds
    return rows


class Gathered(list):
    """Columns gathered for a batch, one sequence each, equally long: a
    `Batch.columns` (`column(p)` is the p-th) that is never edited."""

    column = list.__getitem__


class Columns:
    """A batch held column-major, built into rows only when read as rows:
    `columns` holds its `count` rows as a `Batch.columns` does, and `kinds`
    is as a `Batch`'s. Read as rows - iterated, indexed, measured - it
    builds them once, into a `Batch` holding the same columns: gathered by
    `take` off `base`, the rows they were selected from, or else zipped
    from the `Gathered` columns."""

    __slots__ = ("columns", "kinds", "count", "_base", "_take", "_rows")

    def __init__(self, columns, kinds, count: int, base=None, take=None):
        self.columns = columns
        self.kinds = kinds
        self.count = count
        self._base = base
        self._take = take
        self._rows: Optional[list] = None

    def __len__(self):
        return self.count

    def rows(self) -> list:
        """The rows, as a `Batch` (the same one on every call)."""
        rows = self._rows
        if rows is None:
            if self._take is not None:
                rows = Batch(self._take(self._base))
            else:
                rows = Batch(zip(*self.columns) if self.columns else [()] * self.count)
            rows.kinds, rows.columns = self.kinds, self.columns
            self._rows = rows
        return rows

    def __iter__(self):
        return iter(self.rows())

    def __getitem__(self, index):
        return self.rows()[index]


class Relation:
    """An ordered bag of rows with a `RelSchema`.

    This is the universal result type: local engine results, component-query
    results shipped over the simulated network, warehouse extracts and search
    hits all materialize as `Relation`s. One adopted from `Columns` keeps
    them and builds `rows` when first read; a fetch-cache entry is read by
    many threads, so the attribute only ever holds a finished list.
    """

    __slots__ = ("schema", "_rows", "_columns")

    def __init__(self, schema: RelSchema, rows: Iterable[Sequence]):
        self.schema = schema
        self._columns: Optional[Columns] = None
        self._rows: Optional[list] = list(map(tuple, rows))
        width = len(schema)
        if not set(map(len, self._rows)) <= {width}:
            ragged = next(row for row in self._rows if len(row) != width)
            raise SchemaError(f"row width {len(ragged)} does not match schema width {width}")

    @classmethod
    def adopt(cls, schema: RelSchema, rows) -> "Relation":
        """Take over `rows` - tuples of the schema's width that an operator
        just built, or `Columns` - with neither a copy nor a check; a
        `Batch` keeps its vouch."""
        relation = cls.__new__(cls)
        relation.schema = schema
        if type(rows) is Columns:
            relation._rows, relation._columns = None, rows
        else:
            relation._rows, relation._columns = rows, None
        return relation

    @property
    def rows(self) -> list:
        rows = self._rows
        if rows is None:  # a racing reader builds its own: both are finished
            rows = self._rows = self._columns.rows()  # type: ignore[union-attr]
        return rows

    @rows.setter
    def rows(self, rows: list) -> None:
        self._rows, self._columns = rows, None

    @property
    def batch(self):
        """What the relation holds, as an operator hands it on: the `Columns`
        it adopted (their rows built or not), else its rows."""
        columns = self._columns
        return self._rows if columns is None else columns

    def __len__(self):
        rows = self._rows
        return len(self._columns if rows is None else rows)  # type: ignore[arg-type]

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
        """Serialized size under the wire model (see `repro.common.types`),
        read off the columns when they were gathered (`Gathered`)."""
        batch = self._columns if self._rows is None else self._rows
        held = getattr(batch, "columns", None)
        if type(held) is Gathered:
            return columns_size(held, batch.kinds, len(batch), batch)  # type: ignore[union-attr]
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
