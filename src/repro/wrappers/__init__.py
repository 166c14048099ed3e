"""Wrappers: per-vendor dialect descriptions and the capability contract.

Draper (§5) credits much of Nimble's performance edge to modeling "the
individual quirks of different vendors and versions of databases to a much
finer degree than … other systems", because finer modeling let the planner
push predicates that a conservative wrapper would have to evaluate at the
mediator. This package makes that knob explicit: a `Dialect` declares which
predicate forms and scalar functions a source can evaluate, and
`statement_reasons` decides, for the planner, strict mode and the sources
alike, whether a component statement may be sent (DESIGN.md "Capability
contract").

`fidelity_levels()` returns the three wrapper generations used by
experiment E3: GENERIC (lowest common denominator), CONSERVATIVE (standard
SQL-92-ish) and QUIRK_AWARE (full knowledge of the backend).
"""

from repro.wrappers.dialects import (
    ACMEDB,
    BIZBASE,
    CONSERVATIVE,
    Dialect,
    GENERIC,
    LEGACYSQL,
    NATIVE,
    QUIRK_AWARE,
    fidelity_levels,
)
from repro.wrappers.pushability import binding_supplier, statement_reasons, unsupported_reasons

__all__ = [
    "ACMEDB",
    "BIZBASE",
    "CONSERVATIVE",
    "Dialect",
    "GENERIC",
    "LEGACYSQL",
    "NATIVE",
    "QUIRK_AWARE",
    "binding_supplier",
    "fidelity_levels",
    "statement_reasons",
    "unsupported_reasons",
]
