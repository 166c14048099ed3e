"""GAV/LAV mapping lint (EII3xx diagnostics).

GAV side: every view a `FederationCatalog` defines is checked for dangling table
references, definition cycles and computed columns that make updates
untranslatable (the view-update problem), then its body is semantically
analyzed like any query. LAV side: rules are checked for safety, pairwise
redundancy (mutual containment via the canonical database), conceptual
attributes no view ever exposes, and — given a workload — views MiniCon can
never use.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.mediator.cq import ConjunctiveQuery, Var, is_contained_in
from repro.mediator.lav import LavMapping, minicon_rewritings
from repro.sql.ast import ColumnRef, Select, Star


# ---------------------------------------------------------------------------
# GAV
# ---------------------------------------------------------------------------


def lint_gav(catalog, names: Optional[Iterable[str]] = None) -> List[Diagnostic]:
    """Lint the views defined in `catalog` (a `FederationCatalog`) - all its
    plain-SELECT definitions, or those named (a workspace's own)."""
    diags: List[Diagnostic] = []
    defined = catalog.definitions
    views: Dict[str, Select] = {
        name: defined[name].statement
        for name in sorted(defined if names is None else names)
        if isinstance(defined[name].statement, Select)
    }

    cyclic = _find_cycles(views)
    for name in sorted(cyclic):
        diags.append(
            error(
                "EII305",
                f"cyclic view definition involving {name!r}",
                origin=name,
                hint="break the cycle; views must unfold to base tables",
            )
        )

    for name, view in views.items():
        for ref in view.tables():
            key = ref.name.lower()
            if key in defined or catalog.has_table(key):
                continue
            diags.append(
                error(
                    "EII301",
                    f"view {name!r} references unknown table {ref.name!r}",
                    origin=name,
                    hint="register the source table or define the view it names",
                )
            )
        for item in view.items:
            if isinstance(item.expr, (ColumnRef, Star)):
                continue
            diags.append(
                warning(
                    "EII302",
                    f"view {name!r} column {item.output_name!r} is computed "
                    f"({item.expr}); updates through it cannot be translated "
                    "to the sources",
                    origin=name,
                    hint="expose the underlying columns for writable views",
                )
            )

    if not cyclic:
        diags.extend(_semantic_check_views(catalog, views))
    return diags


def _semantic_check_views(catalog, views: Dict[str, Select]) -> List[Diagnostic]:
    """Run the EII1xx semantic pass over each view body.

    The catalog resolves views and tables alike, so views over views check
    out and column-level defects inside definitions surface with the view
    name as the diagnostic origin.
    """
    from repro.analysis.semantic import analyze_statement

    diags: List[Diagnostic] = []
    for name, view in views.items():
        try:
            found = analyze_statement(view, catalog)
        except Exception:  # a broken sibling view can poison resolution
            continue
        diags.extend(d.with_origin(name) for d in found)
    return diags


def _find_cycles(views: Dict[str, Select]) -> Set[str]:
    """View names participating in (or depending on) a definition cycle."""
    graph: Dict[str, List[str]] = {}
    for name, view in views.items():
        graph[name] = [
            ref.name.lower() for ref in view.tables() if ref.name.lower() in views
        ]
    cyclic: Set[str] = set()
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done

    def visit(node: str, stack: List[str]) -> None:
        if state.get(node) == 1:
            return
        if state.get(node) == 0:
            cyclic.update(stack[stack.index(node):])
            return
        state[node] = 0
        stack.append(node)
        for successor in graph.get(node, ()):  # pragma: no branch
            visit(successor, stack)
        stack.pop()
        state[node] = 1

    for name in views:
        visit(name, [])
    return cyclic


# ---------------------------------------------------------------------------
# LAV
# ---------------------------------------------------------------------------


def lint_lav(
    mappings: Sequence[LavMapping],
    workload: Iterable[ConjunctiveQuery] = (),
) -> List[Diagnostic]:
    """Lint LAV source descriptions, optionally against a query workload."""
    diags: List[Diagnostic] = []
    mappings = list(mappings)

    for mapping in mappings:
        if not mapping.view.is_safe():
            exposed = {var.name for var in mapping.view.head_vars()}
            body_vars = {
                var.name
                for atom in mapping.view.body
                for var in atom.variables()
            }
            missing = sorted(exposed - body_vars)
            diags.append(
                error(
                    "EII306",
                    f"view {mapping.name!r} is unsafe: head variable(s) "
                    f"{', '.join(missing)} never occur in the body",
                    origin=mapping.name,
                    hint="every head variable must be range-restricted",
                )
            )

    safe = [m for m in mappings if m.view.is_safe()]
    diags.extend(_redundant_views(safe))
    diags.extend(_unexposed_attributes(safe))
    if workload:
        diags.extend(_dead_views(safe, workload))
    return diags


def _redundant_views(mappings: Sequence[LavMapping]) -> List[Diagnostic]:
    """EII304: pairs of views equivalent under CQ containment."""
    diags: List[Diagnostic] = []
    for i, first in enumerate(mappings):
        for second in mappings[i + 1:]:
            if len(first.view.head) != len(second.view.head):
                continue
            if is_contained_in(first.view, second.view) and is_contained_in(
                second.view, first.view
            ):
                diags.append(
                    warning(
                        "EII304",
                        f"views {first.name!r} and {second.name!r} are "
                        "equivalent: one of them is redundant",
                        origin=second.name,
                        hint="drop one view, or differentiate their bodies",
                    )
                )
    return diags


def _unexposed_attributes(mappings: Sequence[LavMapping]) -> List[Diagnostic]:
    """EII307: conceptual attribute positions no view head ever exposes."""
    #: (predicate, position) -> exposed by at least one view head?
    seen: Dict[Tuple[str, int], bool] = {}
    for mapping in mappings:
        head_vars = set(mapping.view.head_vars())
        for atom in mapping.view.body:
            for position, term in enumerate(atom.terms):
                key = (atom.predicate, position)
                exposed = isinstance(term, Var) and term in head_vars
                seen[key] = seen.get(key, False) or exposed
    diags: List[Diagnostic] = []
    for (predicate, position), exposed in sorted(seen.items()):
        if exposed:
            continue
        diags.append(
            warning(
                "EII307",
                f"conceptual attribute {predicate}[{position}] is covered by "
                "the views but never exposed in any view head: queries "
                "projecting it have no rewriting",
                hint=f"add the attribute to some view head over {predicate!r}",
            )
        )
    return diags


def _dead_views(
    mappings: Sequence[LavMapping], workload: Iterable[ConjunctiveQuery]
) -> List[Diagnostic]:
    """EII303: views MiniCon never uses in any rewriting of the workload."""
    used: Set[str] = set()
    for query in workload:
        try:
            rewritings = minicon_rewritings(query, list(mappings))
        except Exception:
            continue
        for rewriting in rewritings:
            used.update(atom.predicate for atom in rewriting.body)
    diags: List[Diagnostic] = []
    for mapping in mappings:
        if mapping.name in used:
            continue
        diags.append(
            warning(
                "EII303",
                f"view {mapping.name!r} is dead: MiniCon uses it in no "
                "rewriting of the workload",
                origin=mapping.name,
                hint="broaden the view or drop it; it answers no known query",
            )
        )
    return diags
