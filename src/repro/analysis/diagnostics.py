"""Analysis reports: every pass's typed diagnostics, gathered.

A pass produces `Diagnostic`s (`repro.common.diagnostics`, re-exported
here: a stable code, a severity, a best-effort source span and a fix hint),
aggregated into an `AnalysisReport`. Engines running with `validate=True`
raise `AnalysisError` on any error-severity finding *before* a single byte
is shipped; the attached `MetricsCollector` is the zero-byte proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List

from repro.common.diagnostics import Diagnostic, Severity
# the diagnostic vocabulary every pass imports from here
from repro.common.diagnostics import CODES, SourceSpan, error, info, span_at, span_of, warning  # noqa: F401
from repro.common.errors import EIIError


@dataclass
class AnalysisReport:
    """An ordered collection of diagnostics with severity rollups."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when nothing error-severity was found (warnings allowed)."""
        return not self.errors

    def codes(self) -> set:
        return {d.code for d in self.diagnostics}

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def headline(self) -> str:
        if not self.diagnostics:
            return "static analysis: no diagnostics"
        parts = []
        for label, found in (
            ("error", self.errors),
            ("warning", self.warnings),
        ):
            if found:
                plural = "s" if len(found) != 1 else ""
                parts.append(f"{len(found)} {label}{plural}")
        if not parts:
            parts.append(f"{len(self.diagnostics)} note(s)")
        listed = ", ".join(sorted({d.code for d in self.errors or self.diagnostics}))
        return f"static analysis found {' and '.join(parts)} ({listed})"

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(d.render() for d in self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)


class AnalysisError(EIIError):
    """Raised when `validate=True` analysis rejects a query before execution.

    `report` holds the full diagnostics; `metrics` — when provided by an
    engine — is the (zero-byte) `MetricsCollector` proving the rejection
    happened before any source was contacted.
    """

    def __init__(self, report: AnalysisReport, metrics=None):
        self.report = report
        self.metrics = metrics
        super().__init__(report.headline() + "\n" + report.render())
