"""SQL semantic analysis against a table resolver (EII1xx diagnostics).

A SELECT's or UNION's diagnostics are its bind's: the binder
(`repro.engine.planner.Binder`) binds, types and diagnoses a query in one
pass, and the engine raises what it records here. This module checks the
DML statements the binder never sees - INSERT, UPDATE and DELETE - with the
binder's expression typer. The resolver is duck-typed: anything with
`resolve_table(name) -> RelSchema` (a `Database` adapter, a
`FederationCatalog` - definitions included).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.common.errors import EIIError
from repro.common.types import DataType, infer_type
from repro.engine.planner import Binder
from repro.sql.ast import Delete, Insert, Literal, Select, UnionSelect, Update
from repro.sql.printer import expr_to_sql


def analyze_statement(stmt, resolver, text: Optional[str] = None) -> List[Diagnostic]:
    """Semantic diagnostics for a parsed statement (never raises)."""
    binder = Binder(resolver, text)
    if isinstance(stmt, (Select, UnionSelect)):
        binder.statement(stmt)
    elif isinstance(stmt, Insert):
        _check_insert(stmt, binder)
    elif isinstance(stmt, Update):
        _check_update(stmt, binder)
    elif isinstance(stmt, Delete):
        _check_delete(stmt, binder)
    return binder.diagnostics


def _check_insert(stmt: Insert, binder: Binder) -> None:
    schema = binder.resolve(stmt.table)
    if schema is None:
        return
    target_columns = list(stmt.columns) if stmt.columns else schema.names
    for name in stmt.columns:
        if not schema.has(name):
            binder.flag(
                "EII102", f"unknown column {name!r} in INSERT into {stmt.table!r}",
                f"available: {', '.join(schema.names)}", name,
            )
    width = len(target_columns)
    for index, row in enumerate(stmt.rows):
        if len(row) != width:
            binder.flag(
                "EII112", f"INSERT row {index + 1} has {len(row)} values for {width} columns",
                "match the VALUES tuple to the column list", "VALUES",
            )
            continue
        for name, expr in zip(target_columns, row):
            if not isinstance(expr, Literal) or not schema.has(name):
                continue
            try:
                value_type = infer_type(expr.value)
            except EIIError:
                continue
            target = schema.column(name).dtype
            if value_type is not DataType.ANY and not target.accepts(value_type):
                binder.flag(
                    "EII104",
                    f"INSERT value {expr_to_sql(expr)} ({value_type.value}) does "
                    f"not fit column {name!r} ({target.value})",
                    "cast or correct the literal", name,
                )


def _check_update(stmt: Update, binder: Binder) -> None:
    schema = binder.resolve(stmt.table)
    if schema is None:
        return
    for name, value in stmt.assignments:
        if not schema.has(name):
            binder.flag(
                "EII102", f"unknown column {name!r} in UPDATE of {stmt.table!r}",
                f"available: {', '.join(schema.names)}", name,
            )
            continue
        value_type = binder.type_of(value, schema, "SET")
        target = schema.column(name).dtype
        if value_type is not None and value_type is not DataType.ANY and not target.accepts(value_type):
            binder.flag(
                "EII104",
                f"assignment to {name!r} ({target.value}) from incompatible type {value_type.value}",
                "cast or correct the expression", name,
            )
    if stmt.where is not None:
        binder.condition(stmt.where, schema, "WHERE")


def _check_delete(stmt: Delete, binder: Binder) -> None:
    schema = binder.resolve(stmt.table)
    if schema is not None and stmt.where is not None:
        binder.condition(stmt.where, schema, "WHERE")
