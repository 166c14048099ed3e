"""QueryAnalyzer: the one-stop facade over all analysis passes.

`analyze()` runs syntax (EII100), semantics (EII1xx: for a query, the
diagnostics of the binder's one pass, so the engine raises exactly the
first of its errors) and — when a federation catalog is available —
capability feasibility (EII2xx) over a query. `verify()` runs the EII4xx
invariant checks over a planned `FederatedPlan`. The federated engine calls
both around planning when constructed with `validate=True`; the CLI and the
shell's `\\lint` call `analyze` directly.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.analysis.capability import analyze_capabilities
from repro.analysis.diagnostics import AnalysisReport, error, span_at
from repro.analysis.invariants import verify_plan
from repro.analysis.semantic import analyze_statement
from repro.common.errors import ParseError
from repro.sql.ast import Select, UnionSelect
from repro.sql.parser import parse


class QueryAnalyzer:
    """Analyzes queries against a resolver and (optionally) a catalog.

    `resolver` is anything with `resolve_table(name) -> RelSchema`; when
    omitted it defaults to `catalog`. `catalog` (a `FederationCatalog`)
    additionally enables the EII2xx capability checks.
    """

    def __init__(self, resolver=None, catalog=None):
        if resolver is None:
            resolver = catalog
        if resolver is None:
            raise ValueError("QueryAnalyzer needs a resolver or a catalog")
        self.resolver = resolver
        self.catalog = catalog

    def analyze(
        self, query: Union[str, Select, UnionSelect], text: Optional[str] = None
    ) -> AnalysisReport:
        """Pre-planning analysis of one statement (never raises)."""
        report = AnalysisReport()
        statement = query
        if isinstance(query, str):
            text = query
            try:
                statement = parse(query)
            except ParseError as exc:
                span = (
                    span_at(query, exc.position)
                    if exc.position is not None
                    else None
                )
                report.add(
                    error(
                        "EII100",
                        str(exc),
                        span=span,
                        hint="fix the syntax; nothing else was checked",
                    )
                )
                return report
        report.extend(analyze_statement(statement, self.resolver, text))
        if self.catalog is not None and isinstance(statement, (Select, UnionSelect)):
            report.extend(analyze_capabilities(statement, self.catalog, text))
        return report

    def verify(self, plan, values: tuple) -> AnalysisReport:
        """Post-planning invariant verification of a `FederatedPlan`, its
        texts showing `values`, the constants of the statement it runs for."""
        report = AnalysisReport()
        report.extend(verify_plan(plan, values=values))
        return report
