"""Static analysis & diagnostics for the EII stack.

Pass-based analysis producing typed diagnostics with stable codes:

- EII1xx  SQL semantic analysis (`semantic.analyze_statement`: a query's
          are the binder's, `repro.engine.planner`; DML is checked here)
- EII2xx  capability / binding-pattern feasibility (`capability.analyze_capabilities`)
- EII3xx  GAV/LAV mapping lint (`mappings.lint_gav` / `mappings.lint_lav`)
- EII4xx  plan invariant verification (`invariants.verify_plan`)

`QueryAnalyzer` is the facade the federated engine uses under `validate=True`;
`lint_workspace` powers `python -m repro.analysis` and the shell's `\\lint`.
"""

from repro.analysis.analyzer import QueryAnalyzer
from repro.analysis.capability import analyze_capabilities
from repro.analysis.diagnostics import (
    CODES,
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Severity,
    SourceSpan,
    error,
    info,
    span_at,
    span_of,
    warning,
)
from repro.analysis.invariants import verify_plan
from repro.analysis.mappings import lint_gav, lint_lav
from repro.analysis.semantic import analyze_statement
from repro.analysis.workspace import lint_workspace, workspace_files

__all__ = [
    "CODES",
    "AnalysisError",
    "AnalysisReport",
    "Diagnostic",
    "QueryAnalyzer",
    "Severity",
    "SourceSpan",
    "analyze_capabilities",
    "analyze_statement",
    "error",
    "info",
    "lint_gav",
    "lint_lav",
    "lint_workspace",
    "span_at",
    "span_of",
    "verify_plan",
    "warning",
    "workspace_files",
]
