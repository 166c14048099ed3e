"""An independent row reference: stdlib `sqlite3` over a fixture's base tables.

Every other row oracle compares the federated engine with `LocalEngine`,
which shares the parser, the logical rewriter and the operator kernels, so a
rewrite bug is invisible to it. sqlite shares none of them. The statement is
printed by `repro.sql.printer` (booleans as 1/0) and run as is.

The semantic gaps, each normalised once here:

- dates are stored as ISO text, and the engine's dates compared as their
  ISO text;
- booleans are stored as 0/1 and read back as `bool` in any column where
  the engine answers a `bool`;
- LIKE is case-sensitive (`PRAGMA case_sensitive_like = ON`), as the
  engine's is;
- a column holding a float on either side is compared at `REL_TOL`: SQL
  leaves the order of a summation unspecified, and sqlite's is its own.
  Everything else is compared exactly, rows as multisets;
- where the engine refuses a statement as mistyped (EII104) and sqlite
  answers it by type affinity, the refusal is the agreement
  (`AFFINITY_GAPS`, read by `mismatch`): SUM or AVG over text (sqlite sums
  text as 0), a string ordered against a number (sqlite orders every number
  before every string) and a condition that is not a bool (sqlite takes a
  number's truth, and a string as the number it starts with).

Two operators differ and are left out of every compared statement, each
pinned by a test: sqlite casts a float operand of `%` to INTEGER (`7.5 % 2`
is 1, the engine's `math.fmod` 1.5), and sqlite truncates `INT / INT` toward
zero (`7 / 2` is 3 and `-7 / 2` is -3, the engine's `/` is true division:
3.5 and -3.5). True division is what makes eager aggregation's `AVG(e)` ->
`SUM(partial sum) / SUM(partial count)` exact for an INT column. NULLs sort
first ascending and last descending in both, so ORDER BY needs no
normalisation.
"""

from __future__ import annotations

import datetime
import math
import re
import sqlite3
from collections import defaultdict

from repro.common.errors import TypeMismatchError
from repro.common.types import DataType
from repro.sql.parser import parse, parse_select
from repro.sql.printer import PrintOptions, to_sql

#: relative tolerance of a float column
REL_TOL = 1e-9

#: The EII104 refusals sqlite answers by type affinity, by the refusal's text.
AFFINITY_GAPS = {
    "SUM or AVG over text": re.compile(r"^(SUM|AVG) over non-numeric argument .* \(string\)"),
    "a string ordered against a number": re.compile(
        r"^cannot compare (string to (int|float)|(int|float) to string) in .*(<|>|BETWEEN)"
    ),
    "a condition that is not a bool": re.compile(r"has type \w+, expected bool"),
}

_SQLITE_TYPES = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.BOOL: "INTEGER",
}
_PRINT = PrintOptions(integer_booleans=True)


def _stored(value):
    return value.isoformat() if isinstance(value, datetime.date) else value


def base_tables(fixture):
    """``(name, schema, rows)`` of every relational table of an EIIBench fixture."""
    for database in (fixture.crm, fixture.sales, fixture.support, fixture.finance):
        for table in database.tables():
            yield table.name, table.schema, list(table.rows())
    for name in fixture.marketing.table_names():
        rows = fixture.marketing.execute_select(parse_select(f"SELECT * FROM {name}")).rows
        yield name, fixture.marketing.schema_of(name), rows
    credit = fixture.credit
    rows = [row for key in range(1, fixture.config.customers + 1) for row in credit.lookup(key)]
    yield credit.table_name, credit.schema_of(credit.table_name), rows


class SqliteReference:
    """An in-memory sqlite database holding a fixture's base tables."""

    def __init__(self, fixture):
        self.db = sqlite3.connect(":memory:")
        self.db.execute("PRAGMA case_sensitive_like = ON")
        for name, schema, rows in base_tables(fixture):
            columns = ", ".join(
                f"{column.name} {_SQLITE_TYPES.get(column.dtype, 'TEXT')}" for column in schema
            )
            self.db.execute(f"CREATE TABLE {name} ({columns})")
            marks = ", ".join("?" * len(schema))
            self.db.executemany(
                f"INSERT INTO {name} VALUES ({marks})",
                [tuple(map(_stored, row)) for row in rows],
            )

    def query(self, sql: str) -> list:
        return self.db.execute(to_sql(parse(sql), _PRINT)).fetchall()


def affinity_gap(exc: Exception):
    """The `AFFINITY_GAPS` name of an engine refusal, or None."""
    if getattr(exc, "code", None) != "EII104":
        return None
    return next((name for name, text in AFFINITY_GAPS.items() if text.search(str(exc))), None)


def mismatch(engine, reference: SqliteReference, sql: str):
    """None when a federated `engine` answers `sql` with sqlite's rows, or
    refuses it where sqlite answers by type affinity; else how they differ."""
    try:
        rows = engine.query(sql).relation.rows
    except TypeMismatchError as exc:
        if affinity_gap(exc) is None:
            raise
        return None
    return row_mismatch(rows, reference.query(sql))


def row_mismatch(rows: list, reference: list):
    """None when the engine's `rows` equal sqlite's `reference` as multisets
    (see the module docstring); else a line saying how they differ."""
    if len(rows) != len(reference):
        return f"{len(rows)} rows, the reference has {len(reference)}"
    if not rows:
        return None
    width = len(rows[0])
    bools = {i for i in range(width) if any(isinstance(row[i], bool) for row in rows)}
    floats = {
        i for i in range(width)
        if any(isinstance(row[i], float) for row in rows + reference)
    }

    def split(row, reference_side):
        values = [
            bool(value) if reference_side and i in bools and value is not None else _stored(value)
            for i, value in enumerate(row)
        ]
        exact = tuple(value for i, value in enumerate(values) if i not in floats)
        return exact, tuple(value for i, value in enumerate(values) if i in floats)

    groups: dict = defaultdict(lambda: ([], []))
    for side, batch in ((0, rows), (1, reference)):
        for row in batch:
            exact, inexact = split(row, side == 1)
            groups[exact][side].append(inexact)
    for exact, (mine, theirs) in groups.items():
        if len(mine) != len(theirs):
            return f"{exact}: {len(mine)} rows, the reference has {len(theirs)}"
        for a, b in zip(sorted(mine, key=_float_order), sorted(theirs, key=_float_order)):
            if not all(_close(x, y) for x, y in zip(a, b)):
                return f"{exact}: {a} vs the reference's {b}"
    return None


def _float_order(values: tuple) -> tuple:
    return tuple((value is not None, value or 0) for value in values)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL)
