"""Canonical cache keys, built on the existing SQL printer.

Two query texts that differ only in whitespace, case of keywords, or other
surface syntax parse to the same AST — printing that AST back with
`repro.sql.printer.to_sql` yields one canonical spelling, which is the
cache key. This is what lets the plan cache treat

    SELECT name FROM customers WHERE id = 1
    select name  from customers where id=1

as the same query shape: one parse (cheap) replaces the whole
reformulate/optimize/decompose pipeline (expensive) on a hit.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.store import BoundedStore
from repro.sql.ast import Select, UnionSelect
from repro.sql.printer import to_sql

#: query text -> `(statement, canonical SQL)`, SELECTs only (LRU). The AST
#: is frozen, so one parse can be handed to every caller; parse errors and
#: non-SELECT statements are never stored. Process-wide, hence small.
_PARSED = BoundedStore("parsed", max_entries=256)


def canonical_statement(query) -> Tuple[object, Optional[str]]:
    """Normalize a query input to `(statement, canonical_text)`.

    Textual queries are parsed once (the parse is reused downstream, so a
    cache miss costs no extra work) and a repeated text skips lexer, parser
    and printer altogether; SELECT ASTs are printed directly.
    Anything else — e.g. an already-built `LogicalPlan` — passes through
    with no key, and therefore bypasses the text-keyed cache levels.
    """
    if isinstance(query, str):
        known = _PARSED.get(query)
        if known is not None:
            return known
        from repro.sql.parser import parse

        statement = parse(query)
        if not isinstance(statement, (Select, UnionSelect)):
            return statement, None
        known = statement, to_sql(statement)
        _PARSED.put(query, known)
        return known
    if isinstance(query, (Select, UnionSelect)):
        return query, to_sql(query)
    return query, None


def fetch_key(source_name: str, stmt) -> Tuple[str, str]:
    """Key for one component fetch: `(source, canonical pushed-down SQL)`."""
    return (source_name, to_sql(stmt))
