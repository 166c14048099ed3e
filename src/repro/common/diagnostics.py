"""Typed diagnostics: one finding of a static check, and the codes they carry.

A `Diagnostic` is a stable code (`EII1xx` semantic, `EII2xx`
capability/binding, `EII3xx` mapping lint, `EII4xx` plan invariants,
`EII5xx` concurrency correctness), a severity, a best-effort source span and
a fix hint. The binder (`repro.engine.planner`) records the EII1xx ones while
it binds a statement and raises its first error as the `EIIError` in
`RAISES`; `repro.analysis` gathers every pass's findings into reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.common.errors import ParseError, PlanError, SchemaError, TypeMismatchError


class Severity(enum.IntEnum):
    """Ordering matters: a report is fatal iff it holds any ERROR."""

    INFO = 10
    WARNING = 20
    ERROR = 30


#: Registry of every stable diagnostic code. Passes assert membership so a
#: typo'd code fails loudly in tests rather than shipping a new code family.
CODES = {
    # EII1xx — SQL semantic analysis
    "EII100": "syntax error",
    "EII101": "unknown table",
    "EII102": "unknown column",
    "EII103": "ambiguous column reference",
    "EII104": "expression type mismatch",
    "EII105": "aggregate in WHERE",
    "EII106": "non-grouped column under GROUP BY",
    "EII107": "unknown function",
    "EII108": "duplicate table binding",
    "EII109": "UNION branch width mismatch",
    "EII110": "nested aggregate",
    "EII111": "HAVING without GROUP BY or aggregates",
    "EII112": "INSERT arity mismatch",
    "EII113": "ORDER BY term that cannot be sorted on",
    "EII114": "SELECT without FROM",
    # EII2xx — capability / binding-pattern feasibility
    "EII201": "binding pattern unsatisfied",
    "EII202": "source refuses external queries",
    "EII203": "predicate not pushable",
    "EII204": "scan-only source ships whole table",
    # EII3xx — GAV/LAV mapping lint
    "EII301": "view over unknown table",
    "EII302": "computed view column blocks updates",
    "EII303": "dead LAV view",
    "EII304": "redundant LAV views",
    "EII305": "cyclic view definition",
    "EII306": "unsafe LAV rule",
    "EII307": "conceptual attribute never exposed",
    # EII4xx — plan invariant verification
    "EII401": "fetch exceeds source capabilities",
    "EII402": "cartesian product",
    "EII403": "plan bookkeeping mismatch",
    "EII404": "incomplete dependency tags",
    "EII405": "degradable annotation on essential branch",
    # EII5xx — concurrency correctness (repro.analysis.concurrency)
    "EII501": "lock-order cycle (potential deadlock)",
    "EII502": "unguarded shared-state write",
    "EII503": "non-atomic check-then-act on guarded state",
    "EII504": "lockset race (conflicting accesses share no lock)",
    "EII505": "interleaving divergence from the serial oracle",
    "EII506": "concurrency-slot leak (acquired slots never released)",
    "EII507": "single-writer discipline violation",
}

#: The error a statement's first EII1xx finding raises where it is bound
#: (`repro.engine.planner.bind_select`): what the engine raised for that
#: defect before it was typed. An unknown table (EII101) re-raises what the
#: resolver raised.
RAISES = {
    "EII101": SchemaError,
    "EII102": SchemaError,
    "EII103": SchemaError,
    "EII104": TypeMismatchError,
    "EII105": PlanError,
    "EII106": PlanError,
    "EII107": TypeMismatchError,
    "EII108": PlanError,
    "EII109": PlanError,
    "EII110": PlanError,
    "EII111": PlanError,
    "EII113": PlanError,
    "EII114": PlanError,
}


@dataclass(frozen=True)
class SourceSpan:
    """A location in query/mapping text; offsets 0-based, line/column 1-based."""

    offset: int
    length: int
    line: int
    column: int

    def describe(self) -> str:
        return f"line {self.line}, column {self.column}"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, message, span and fix hint."""

    code: str
    severity: Severity
    message: str
    span: Optional[SourceSpan] = None
    hint: Optional[str] = None
    #: where the finding came from: a file path (workspace lint), a view
    #: name, or "" for ad-hoc query analysis
    origin: str = ""

    def __post_init__(self):
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")

    def render(self) -> str:
        where = f" @ {self.span.describe()}" if self.span is not None else ""
        prefix = f"{self.origin}: " if self.origin else ""
        text = f"{prefix}{self.code} {self.severity.name.lower()}{where}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def with_origin(self, origin: str) -> "Diagnostic":
        return replace(self, origin=origin)


def error(code: str, message: str, **kwargs) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, **kwargs)


def warning(code: str, message: str, **kwargs) -> Diagnostic:
    return Diagnostic(code, Severity.WARNING, message, **kwargs)


def info(code: str, message: str, **kwargs) -> Diagnostic:
    return Diagnostic(code, Severity.INFO, message, **kwargs)


# ---------------------------------------------------------------------------
# Span helpers
# ---------------------------------------------------------------------------


def span_at(text: str, offset: int, length: int = 1) -> SourceSpan:
    """Build a span from a raw offset into `text`."""
    prefix = text[:offset]
    line = prefix.count("\n") + 1
    column = offset - (prefix.rfind("\n") + 1) + 1
    return SourceSpan(offset, length, line, column)


def span_of(text: Optional[str], name: str, occurrence: int = 1) -> Optional[SourceSpan]:
    """Best-effort span of identifier/keyword `name` in `text`, via the lexer.

    Returns None when no text is available (AST-only analysis) or the name
    does not appear as a token — diagnostics then simply carry no span.
    """
    if not text or not name:
        return None
    from repro.sql.lexer import tokenize

    try:
        tokens = tokenize(text)
    except ParseError:
        return None
    bare = name.split(".")[-1]
    count = 0
    for token in tokens:
        if token.kind in ("IDENT", "KEYWORD") and str(token.value).lower() == bare.lower():
            count += 1
            if count == occurrence:
                return SourceSpan(
                    token.position, len(str(token.value)), token.line, token.column
                )
    return None
