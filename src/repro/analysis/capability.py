"""Capability & binding-pattern feasibility analysis (EII2xx diagnostics).

Statically proves whether a federated query *can* be answered given each
source's declared `SourceCapabilities` — before the planner runs and before
a single byte ships. The core is a fixpoint over binding patterns: a table
whose source demands a bound column is answerable once that column is bound
by a literal predicate, or equi-joined to a column of an already-answerable
table (a bind join will feed it values).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.diagnostics import Diagnostic, error, info, span_of, warning
from repro.sql.ast import BinaryOp, ColumnRef, Expr, Select, UnionSelect
from repro.sql.exprutil import column_refs, split_conjuncts
from repro.sql.printer import expr_to_sql
from repro.wrappers.pushability import binding_supplier, unsupported_reasons


def analyze_capabilities(stmt, catalog, text: Optional[str] = None) -> List[Diagnostic]:
    """EII2xx diagnostics for a SELECT/UNION against a federation catalog."""
    diags: List[Diagnostic] = []
    if isinstance(stmt, UnionSelect):
        for branch in stmt.selects:
            diags.extend(_analyze_select(branch, catalog, text))
    elif isinstance(stmt, Select):
        diags.extend(_analyze_select(stmt, catalog, text))
    return diags


def _analyze_select(stmt: Select, catalog, text: Optional[str]) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    #: binding (lower) -> catalog entry; skip unknown tables (EII101's job)
    entries: Dict[str, object] = {}
    for ref in stmt.tables():
        if catalog.has_table(ref.name):
            entries[ref.binding.lower()] = catalog.entry(ref.name)
    if not entries:
        return diags

    for binding, entry in entries.items():
        if not entry.source.capabilities.allows_external_queries:
            diags.append(
                error(
                    "EII202",
                    f"source {entry.source.name!r} (table {entry.global_name!r}) "
                    "does not admit external queries",
                    span=span_of(text, entry.global_name),
                    hint="replicate the table into the warehouse tier instead",
                )
            )

    conjuncts: List[Expr] = list(split_conjuncts(stmt.where))
    for join in stmt.joins:
        conjuncts.extend(split_conjuncts(join.condition))

    diags.extend(_check_binding_patterns(stmt, entries, conjuncts, text))
    diags.extend(_check_pushability(entries, conjuncts, text))
    return diags


# ---------------------------------------------------------------------------
# EII201 — binding-pattern fixpoint
# ---------------------------------------------------------------------------


def _check_binding_patterns(
    stmt: Select, entries: Dict[str, object], conjuncts: List[Expr], text
) -> List[Diagnostic]:
    required: Dict[str, str] = {}  # binding -> required column (lower)
    for binding, entry in entries.items():
        column = entry.source.capabilities.required_binding(entry.local_name)
        if column is not None:
            required[binding] = column

    bound: Set[str] = {b for b in entries if b not in required}
    # literal equality / IN on the required column satisfies it directly
    for binding, column in list(required.items()):
        if any(
            _binds_directly(conjunct, binding, column, entries)
            for conjunct in conjuncts
        ):
            bound.add(binding)

    # fixpoint: an equi-join from a bound table can feed the required column
    feeds = _feeds(stmt, entries)
    changed = True
    while changed:
        changed = False
        for binding, column, other in feeds:
            if binding not in bound and required.get(binding) == column and other in bound:
                bound.add(binding)
                changed = True

    diags: List[Diagnostic] = []
    for binding in sorted(set(required) - bound):
        entry = entries[binding]
        column = required[binding]
        diags.append(
            error(
                "EII201",
                f"table {entry.global_name!r} (source {entry.source.name!r}) "
                f"requires a binding on {column!r} and the query never supplies "
                "one",
                span=span_of(text, entry.global_name),
                hint=(
                    f"add WHERE {binding}.{column} = <value> or join "
                    f"{binding}.{column} to an unrestricted table"
                ),
            )
        )
    return diags


def _binds_directly(
    conjunct: Expr, binding: str, column: str, entries: Dict[str, object]
) -> bool:
    """True for a binding supplier (`binding_supplier`) on the required column."""
    supplied = binding_supplier(conjunct)
    return (
        supplied is not None
        and supplied[0].name.lower() == column
        and _owner(supplied[0], entries) == binding
    )


def _feeds(stmt: Select, entries: Dict[str, object]) -> list:
    """``(binding, column, other)`` per equi-join by which a bound `other`
    feeds keys to `binding.column`. A LEFT join feeds its own, null-supplying
    table only: the planner binds it from the preserved side, never back."""
    predicates: list = [(stmt.where, None)]
    for join in stmt.joins:
        null_supplying = join.table.binding.lower() if join.kind == "LEFT" else None
        predicates.append((join.condition, null_supplying))
    feeds: list = []
    for predicate, only in predicates:
        for conjunct in split_conjuncts(predicate):
            pair = _equi_join(conjunct, entries)
            if pair is None:
                continue
            for (binding, column), (other, _) in (pair, pair[::-1]):
                if only in (None, binding):
                    feeds.append((binding, column, other))
    return feeds


def _equi_join(conjunct: Expr, entries: Dict[str, object]):
    """`(binding, col) = (binding, col)` across two distinct tables, or None."""
    if not (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return None
    left = _owner(conjunct.left, entries)
    right = _owner(conjunct.right, entries)
    if left is None or right is None or left == right:
        return None
    return (
        (left, conjunct.left.name.lower()),
        (right, conjunct.right.name.lower()),
    )


def _owner(ref: ColumnRef, entries: Dict[str, object]) -> Optional[str]:
    """Which binding owns a column reference; None when undecidable."""
    if ref.qualifier is not None:
        binding = ref.qualifier.lower()
        return binding if binding in entries else None
    owners = [
        binding
        for binding, entry in entries.items()
        if entry.schema.has(ref.name)
    ]
    return owners[0] if len(owners) == 1 else None


# ---------------------------------------------------------------------------
# EII203 / EII204 — shipped-work warnings
# ---------------------------------------------------------------------------


def _check_pushability(
    entries: Dict[str, object], conjuncts: List[Expr], text
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for conjunct in conjuncts:
        owners = {
            _owner(ref, entries) for ref in column_refs(conjunct)
        }
        owners.discard(None)
        if len(owners) != 1:
            continue  # join predicates / cross-table residuals: planner's call
        binding = owners.pop()
        entry = entries[binding]
        capabilities = entry.source.capabilities
        if capabilities.dialect.fidelity == "scan_only":
            continue  # EII204 covers the whole-table shipping story
        if _binds_directly(
            conjunct,
            binding,
            capabilities.required_binding(entry.local_name) or "",
            entries,
        ):
            continue  # binding-supplier conjuncts are consumed, not pushed
        reasons = unsupported_reasons(conjunct, capabilities.dialect)
        if reasons:
            diags.append(
                warning(
                    "EII203",
                    f"predicate {expr_to_sql(conjunct)} cannot be pushed to "
                    f"source {entry.source.name!r}; it will be evaluated at "
                    "the mediator after shipping rows",
                    span=span_of(text, entry.global_name),
                    hint="; ".join(reasons),
                )
            )
    for binding, entry in sorted(entries.items()):
        capabilities = entry.source.capabilities
        if (
            capabilities.dialect.fidelity == "scan_only"
            and capabilities.required_binding(entry.local_name) is None
        ):
            diags.append(
                info(
                    "EII204",
                    f"table {entry.global_name!r} lives on scan-only source "
                    f"{entry.source.name!r}: the whole table ships regardless "
                    "of predicates",
                    span=span_of(text, entry.global_name),
                    hint="expect payload proportional to the full table size",
                )
            )
    return diags
