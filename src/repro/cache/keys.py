"""Canonical cache keys, built on the existing SQL printer.

Two query texts that differ only in whitespace, case of keywords, or other
surface syntax parse to the same AST — printing that AST back with
`repro.sql.printer.to_sql` yields one canonical spelling, the key of the
result, fetch and view levels. The plan level keys on less: the statement's
*shape* (`repro.sql.shape.lift`, memoised here with the parse), under which
`WHERE id = 1` and `where id=2` share one plan - and, spelled alike, one parse.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.store import BoundedStore
from repro.sql import parser
from repro.sql.ast import Select, UnionSelect
from repro.sql.lexer import mask
from repro.sql.printer import to_sql
from repro.sql.shape import instantiate, learn, lift, unbind

#: query text -> `(statement, canonical SQL)`, SELECTs only (LRU). The AST
#: is frozen, so one parse - and the shape lifted from it - can be handed to
#: every caller; parse errors and non-SELECT statements are never stored.
_PARSED = BoundedStore("parsed", max_entries=256)

#: masked text -> its `Template`, and `Template.key` -> a parsed prototype
#: (LRU), both learned from a full parse: another text of that spelling and
#: key is its prototype with other constants, and never meets the parser.
_TEMPLATES = BoundedStore("templates", max_entries=256)


def _from_template(masked: str, values: list) -> Optional[Select]:
    template = _TEMPLATES.get(masked)
    prototype = template and _TEMPLATES.get(template.key(masked, values))
    return prototype and instantiate(prototype, template, values)


def canonical_statement(query) -> Tuple[object, Optional[str]]:
    """Normalize a query input to `(statement, canonical_text)`.

    Textual queries are parsed once (the parse is reused downstream, so a
    cache miss costs no extra work) and a repeated text skips lexer, parser
    and printer altogether; a new text whose masked spelling was parsed
    before skips lexer and parser. SELECT ASTs are printed directly.
    Anything else has no key: no engine takes it for a query.
    """
    if isinstance(query, str):
        known = _PARSED.get(query)
        if known is not None:
            return known
        masked = mask(query)
        statement = masked and _from_template(*masked)
        if statement is None:
            statement, tokens, origins = parser.parse_with_origins(query)
            if not isinstance(statement, (Select, UnionSelect)):
                return statement, None
            template = masked and learn(statement, tokens, origins, masked[1])
            if template is not None:
                _TEMPLATES.put(masked[0], template)
                _TEMPLATES.put(template.key(*masked), statement)
        known = statement, to_sql(statement)
        _PARSED.put(query, known)
        return known
    if isinstance(query, (Select, UnionSelect)):
        return query, to_sql(query)
    return query, None


def fetch_key(source_name: str, stmt) -> tuple:
    """Key for one component fetch, a `Select` or a `Bound` statement:
    `(source, shape, constants)` - what its canonical text spells, unprinted.
    A slot's type is in the shape (`?int`, `?float`) and constants compare
    by exact type and value (`Literal`), so `1`, `1.0` and `-0.0` never share one."""
    stmt, values = unbind(stmt)
    return (source_name, lift(stmt).shape, values)
