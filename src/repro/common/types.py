"""The value type system shared by storage, the engine and the wire model.

Types are deliberately small: the paper's systems federate over relational,
spreadsheet and document sources, all of which round-trip through the same
scalar kinds. `DATE` is represented as `datetime.date`; `NULL` is Python
`None` and is a member of every type.

`value_size` is the serialization model used by the network simulator: it is
what "bytes shipped" means throughout the benchmarks.
"""

from __future__ import annotations

import datetime
import enum
from itertools import compress, repeat
from operator import add, is_, itemgetter

from repro.common.errors import TypeMismatchError


class DataType(enum.Enum):
    """Scalar column types understood across the federation."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    DATE = "date"
    ANY = "any"

    def __repr__(self):
        return f"DataType.{self.name}"

    def accepts(self, other: "DataType") -> bool:
        """True if a value of type `other` may be stored in a column of self."""
        if self is DataType.ANY or other is DataType.ANY:
            return True
        if self is other:
            return True
        # Ints widen to floats.
        return self is DataType.FLOAT and other is DataType.INT


_PY_TO_TYPE = {
    bool: DataType.BOOL,  # must precede int: bool is a subclass of int
    int: DataType.INT,
    float: DataType.FLOAT,
    str: DataType.STRING,
    datetime.date: DataType.DATE,
}


#: What a stored column of each declared type holds (ANY: anything, so absent).
PYTHON_TYPES = {data_type: py_type for py_type, data_type in _PY_TO_TYPE.items()}


def infer_type(value) -> DataType:
    """Infer the `DataType` of a Python value; None infers as ANY."""
    if value is None:
        return DataType.ANY
    for py_type, data_type in _PY_TO_TYPE.items():
        if isinstance(value, py_type):
            return data_type
    raise TypeMismatchError(f"unsupported Python value type: {type(value).__name__}")


def coerce_value(value, target: DataType):
    """Coerce `value` to `target`, raising `TypeMismatchError` when impossible.

    Coercion is conservative: only int→float widening and string parsing of
    numerics/dates/bools are performed. `None` passes through every type.
    """
    if value is None or target is DataType.ANY:
        return value
    inferred = infer_type(value)
    if inferred is target:
        return value
    if target is DataType.FLOAT and inferred is DataType.INT:
        return float(value)
    if inferred is DataType.STRING:
        return _parse_string(value, target)
    if target is DataType.STRING:
        return _render_string(value)
    raise TypeMismatchError(f"cannot coerce {value!r} ({inferred.value}) to {target.value}")


def _parse_string(text: str, target: DataType):
    text = text.strip()
    try:
        if target is DataType.INT:
            return int(text)
        if target is DataType.FLOAT:
            return float(text)
        if target is DataType.BOOL:
            lowered = text.lower()
            if lowered in ("true", "t", "1", "yes", "y"):
                return True
            if lowered in ("false", "f", "0", "no", "n"):
                return False
            raise ValueError(text)
        if target is DataType.DATE:
            return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise TypeMismatchError(f"cannot parse {text!r} as {target.value}") from exc
    raise TypeMismatchError(f"cannot parse strings as {target.value}")


def _render_string(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


#: Fixed wire widths (bytes) for the serialization-size model.
_FIXED_WIDTHS = {
    DataType.INT: 8,
    DataType.FLOAT: 8,
    DataType.BOOL: 1,
    DataType.DATE: 8,
}

#: Per-value framing overhead on the wire (type tag + length prefix).
VALUE_OVERHEAD_BYTES = 2


#: Wire size by exact Python type, so sizing a value is one dictionary lookup.
#: Strings (UTF-8 length), subclasses such as `datetime.datetime` and
#: unsupported types are absent and take the `infer_type` scan.
_SIZE_BY_EXACT_TYPE = {
    type(None): VALUE_OVERHEAD_BYTES,
    **{
        py_type: VALUE_OVERHEAD_BYTES + _FIXED_WIDTHS[data_type]
        for py_type, data_type in _PY_TO_TYPE.items()
        if data_type in _FIXED_WIDTHS
    },
}


def value_size(value) -> int:
    """Estimated serialized size of one value, in bytes.

    This is the unit of account for every bytes-shipped metric in the
    benchmarks. Strings cost their UTF-8 length; NULLs cost only framing.
    """
    size = _SIZE_BY_EXACT_TYPE.get(type(value))
    if size is not None:
        return size
    if isinstance(value, str):
        return VALUE_OVERHEAD_BYTES + len(value.encode("utf-8"))
    # a subclass of a fixed-width type, or an unsupported type (raises)
    return VALUE_OVERHEAD_BYTES + _FIXED_WIDTHS[infer_type(value)]


def row_size(row) -> int:
    """Estimated serialized size of a row (tuple of values)."""
    return sum(map(value_size, row))


def row_sizes(columns: list, count: int) -> list:
    """`list(map(row_size, rows))` of `count` rows held as `columns` (lists),
    added up a column at a time: a column of one fixed-width exact type adds
    its width to every row, one of several by a lookup per value, one of
    strings framing plus each one's UTF-8 length, anything else `value_size`
    of each value (which raises where `row_size` would)."""
    fixed = 0  # what every row holds the same
    varying: list = []  # a column's sizes per row, where they differ
    for column in columns:
        kinds = set(map(type, column))
        if kinds <= _SIZE_BY_EXACT_TYPE.keys():
            if len(kinds) == 1:
                fixed += _SIZE_BY_EXACT_TYPE[kinds.pop()]
                continue
            varying.append(map(_SIZE_BY_EXACT_TYPE.__getitem__, map(type, column)))
        elif kinds == {str}:
            fixed += VALUE_OVERHEAD_BYTES
            varying.append(map(len, map(str.encode, column)))
        else:
            varying.append(map(value_size, column))
    totals = [fixed] * count
    for sizes in varying:
        totals = list(map(add, totals, sizes))
    return totals


def rows_size(rows) -> int:
    """`sum(map(row_size, rows))` for equal-width rows with no call per
    value: `columns_size` of their columns, read through `itemgetter`s when
    the rows carry a vouch (`repro.common.relation.Batch.kinds`) and
    transposed whole when they do not."""
    kinds = getattr(rows, "kinds", None)
    if kinds is None:
        columns: list = list(zip(*rows))
    else:
        columns = [map(itemgetter(at), rows) for at in range(len(kinds))]
    return columns_size(columns, kinds, len(rows), rows)


def columns_size(columns, kinds, count: int, rows) -> int:
    """`sum(map(row_size, rows))` of `count` rows held as `columns`, priced
    per column: fixed widths times the count of each exact type, strings as
    framing plus the UTF-8 length of their concatenation. A column `kinds`
    vouches to hold one type is not swept for its types - any part of it
    still is of that type - nor, at a fixed width, read. Anything else (a
    subclass such as `datetime.datetime`, an unsupported value, a string
    UTF-8 cannot encode) hands every row of `rows` to `row_size`.
    """
    total = 0
    try:
        for at, column in enumerate(columns):
            vouch = None if kinds is None else kinds[at]
            if vouch.__class__ is not frozenset or len(vouch) > 1:
                column = tuple(column)
                vouch = set(map(type, column))
            kind_of = list(map(type, column)) if len(vouch) > 1 else None
            for kind in vouch:
                counted = count if kind_of is None else kind_of.count(kind)
                if kind is str:
                    strings = column if kind_of is None else compress(column, map(is_, kind_of, repeat(str)))
                    total += VALUE_OVERHEAD_BYTES * counted + len("".join(strings).encode("utf-8"))
                else:
                    total += _SIZE_BY_EXACT_TYPE[kind] * counted
    except (KeyError, UnicodeEncodeError):  # a type, or a string, the table cannot price
        return sum(map(row_size, rows))
    return total
