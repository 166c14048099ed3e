"""Relational schemas: ordered, optionally-qualified, typed columns.

A `RelSchema` is the contract between operators: every physical operator
declares its output schema before producing rows. Column resolution follows
SQL rules — an unqualified name must be unambiguous across qualifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from repro.common.errors import SchemaError
from repro.common.types import DataType


@dataclass(frozen=True)
class Column:
    """A named, typed column, optionally qualified by a table alias."""

    name: str
    dtype: DataType = DataType.ANY
    qualifier: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.dtype, DataType):  # "INT" would fail only at the first insert
            raise SchemaError(
                f"column {self.name!r}: type {self.dtype!r} is not a DataType"
            )

    @property
    def qualified_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def with_qualifier(self, qualifier: Optional[str]) -> "Column":
        return Column(self.name, self.dtype, qualifier)

    def matches(self, name: str, qualifier: Optional[str] = None) -> bool:
        if self.name.lower() != name.lower():
            return False
        if qualifier is None:
            return True
        return (self.qualifier or "").lower() == qualifier.lower()

    def __str__(self):
        return f"{self.qualified_name}:{self.dtype.value}"


class RelSchema:
    """An ordered sequence of `Column`s with SQL-style name resolution."""

    __slots__ = ("columns", "_positions")

    def __init__(self, columns: Iterable[Column]):
        self.columns: tuple[Column, ...] = tuple(columns)
        #: lower-cased `(name, qualifier)` and `(name, None)` -> position, -1
        #: where several columns match; built by the first `index_of`
        self._positions: Optional[dict[tuple[str, Optional[str]], int]] = None

    @classmethod
    def of(cls, *specs) -> "RelSchema":
        """Build a schema from `("name", dtype)` pairs or "qual.name" strings."""
        columns = []
        for spec in specs:
            if isinstance(spec, Column):
                columns.append(spec)
                continue
            name, dtype = spec if isinstance(spec, tuple) else (spec, DataType.ANY)
            qualifier = None
            if "." in name:
                qualifier, name = name.rsplit(".", 1)
            columns.append(Column(name, dtype, qualifier))
        return cls(columns)

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __getitem__(self, index) -> Column:
        return self.columns[index]

    def __eq__(self, other):
        return isinstance(other, RelSchema) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return f"RelSchema({', '.join(str(c) for c in self.columns)})"

    @property
    def names(self) -> list[str]:
        return [column.name for column in self.columns]

    @property
    def qualified_names(self) -> list[str]:
        return [column.qualified_name for column in self.columns]

    def index_of(self, name: str, qualifier: Optional[str] = None) -> int:
        """Resolve a column reference to its position.

        Raises `SchemaError` if the reference is unknown or ambiguous.
        """
        positions = self._positions
        if positions is None:
            # lower-cased once per schema: planning resolves against fresh ones
            positions = {}
            for index, column in enumerate(self.columns):
                lowered = column.name.lower()
                qualifier_key = column.qualifier.lower() if column.qualifier else None
                for key in {(lowered, None), (lowered, qualifier_key)}:
                    positions[key] = -1 if key in positions else index
            self._positions = positions
        index = positions.get((name.lower(), qualifier.lower() if qualifier else None))
        if index is None:
            ref = f"{qualifier}.{name}" if qualifier else name
            raise SchemaError(
                f"unknown column {ref!r}; available: {', '.join(self.qualified_names)}"
            )
        if index < 0:
            ref = f"{qualifier}.{name}" if qualifier else name
            raise SchemaError(f"ambiguous column reference {ref!r}")
        return index

    def column(self, name: str, qualifier: Optional[str] = None) -> Column:
        return self.columns[self.index_of(name, qualifier)]

    def has(self, name: str, qualifier: Optional[str] = None) -> bool:
        try:
            self.index_of(name, qualifier)
        except SchemaError:
            return False
        return True

    def concat(self, other: "RelSchema") -> "RelSchema":
        return RelSchema(self.columns + other.columns)

    def with_qualifier(self, qualifier: Optional[str]) -> "RelSchema":
        """Re-qualify every column (used when aliasing a table or subquery)."""
        return RelSchema(column.with_qualifier(qualifier) for column in self.columns)

    def project(self, indexes: Sequence[int]) -> "RelSchema":
        return RelSchema(self.columns[index] for index in indexes)

    def rename(self, names: Sequence[str]) -> "RelSchema":
        if len(names) != len(self.columns):
            raise SchemaError(
                f"rename expects {len(self.columns)} names, got {len(names)}"
            )
        return RelSchema(
            replace(column, name=name)
            for column, name in zip(self.columns, names)
        )

    def average_row_width(self) -> int:
        """Crude per-row byte width for costing before any rows are seen."""
        widths = {
            DataType.INT: 10,
            DataType.FLOAT: 10,
            DataType.BOOL: 3,
            DataType.DATE: 10,
            DataType.STRING: 24,
            DataType.ANY: 16,
        }
        return sum(widths[column.dtype] for column in self.columns)
