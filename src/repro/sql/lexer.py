"""SQL lexer: one lexeme pattern, read two ways.

`tokenize` produces the flat list of `Token`s the parser indexes into.
Keywords are case-insensitive; identifiers preserve their original case.
String literals use single quotes with `''` as the escape for a literal quote.
`mask` reads only the literal lexemes - by the same two sub-patterns - and
leaves a typed mark in place of each: texts that differ in their constants
alone mask alike, which is how a statement of a known shape skips the parser
(`repro.sql.shape.Template`).
"""

from __future__ import annotations

import datetime
import re
from typing import NamedTuple, Optional

from repro.common.errors import ParseError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE", "BETWEEN",
    "JOIN", "INNER", "LEFT", "OUTER", "ON", "ASC", "DESC", "CASE", "WHEN",
    "THEN", "ELSE", "END", "TRUE", "FALSE", "INSERT", "INTO", "VALUES",
    "UPDATE", "SET", "DELETE", "UNION", "ALL", "CROSS",
}

#: The two literal lexemes. A string ends at the last quote of an odd run of
#: quotes (`''` is an escape); a number does not start inside a word (`t1`),
#: `1.` followed by a non-digit is "1" then ".", and an exponent needs its
#: digits (`1e5`, `1e-05`; `1e` is "1" then "e").
_STRING = r"'[^']*(?:''[^']*)*'(?!')"
_NUMBER = r"(?:(?<!\w)\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"
_LITERAL = re.compile(rf"(?=['\d.])(?:({_STRING})|{_NUMBER})")  # the lookahead: a faster scan
_LEXEME = re.compile(
    rf"(?P<space>\s+)|(?P<word>[^\W\d]\w*)|(?P<number>{_NUMBER})|(?P<string>{_STRING})"
    r"|(?P<comment>--[^\n]*)|(?P<op><=|>=|<>|!=|\|\||[=<>+\-*/%(),.])|(?P<bad>.)"
)


class Token(NamedTuple):
    kind: str  # KEYWORD | IDENT | NUMBER | STRING | OP | EOF
    value: object
    position: int
    #: 1-based source location of the token's first character. Defaults keep
    #: hand-built tokens (tests, tools) valid; `tokenize` always fills them.
    line: int = 1
    column: int = 1

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "KEYWORD" and self.value in words

    def is_op(self, *ops: str) -> bool:
        return self.kind == "OP" and self.value in ops

    def __str__(self):
        return f"{self.kind}:{self.value}"


def tokenize(text: str) -> list[Token]:
    """Lex `text` into tokens, ending with an EOF token.

    Every token records its starting offset plus 1-based line/column, so
    parse errors and static-analysis diagnostics can point at the source.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        kind, lexeme, start = match.lastgroup, match.group(), match.start()
        column = start - line_start + 1
        if kind == "word":
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):  # a digit no `int()` reads
                raise ParseError(f"unexpected character {lexeme[0]!r}", position=start, text=text)
            upper = lexeme.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, start, line, column))
            else:
                tokens.append(Token("IDENT", lexeme, start, line, column))
        elif kind == "number":
            value = _number(lexeme)
            if value == _INF:
                raise ParseError(f"number {lexeme} is out of range", position=start, text=text)
            tokens.append(Token("NUMBER", value, start, line, column))
        elif kind == "op":
            tokens.append(Token("OP", "<>" if lexeme == "!=" else lexeme, start, line, column))
        elif kind == "string":
            tokens.append(Token("STRING", _unquoted(lexeme), start, line, column))
        elif kind == "bad":
            if lexeme == "'":
                raise ParseError("unterminated string literal", position=start, text=text)
            raise ParseError(f"unexpected character {lexeme!r}", position=start, text=text)
        if "\n" in lexeme:  # in white space or a string; a comment ends before its own
            line += lexeme.count("\n")
            line_start = start + lexeme.rfind("\n") + 1
    tokens.append(Token("EOF", None, len(text), line, len(text) - line_start + 1))
    return tokens


_INF = float("inf")


def _number(lexeme: str):
    """An INT for digits alone, else a FLOAT - inf for one beyond a float's
    range (`1e400`), which neither `tokenize` nor `mask` takes."""
    return int(lexeme) if lexeme.isdigit() else float(lexeme)


def _unquoted(lexeme: str) -> str:
    return lexeme[1:-1].replace("''", "'")


def string_value(raw: str):
    """What a string literal stands for: one that reads as an ISO date is a DATE.

    The subset has no DATE '...' syntax; comparisons against date columns
    supply dates as plain strings, which are typed eagerly here.
    """
    if len(raw) == 10 and raw[4] == "-" and raw[7] == "-":
        try:
            return datetime.date.fromisoformat(raw)
        except ValueError:
            pass
    return raw


def mask(text: str) -> Optional[tuple]:
    """``(masked, values)``: `text` with `?int` / `?float` / `?str` / `?date` in
    place of each NUMBER / STRING lexeme, and what those lexemes stand for, in
    order - one C-level pass, one call per literal. None for a text this pass
    does not vouch it splits as `tokenize` does: a comment hides its body from
    the lexer, and the word classes are reasoned for ASCII; and for a number
    out of a float's range, which `tokenize` refuses.
    """
    if "--" in text or not text.isascii():
        return None
    values: list = []

    def mark(match):
        lexeme = match.group()
        value = string_value(_unquoted(lexeme)) if match.lastindex else _number(lexeme)
        values.append(value)
        return "?" + value.__class__.__name__

    masked = _LITERAL.sub(mark, text)
    return None if _INF in values else (masked, values)
