"""Workspace linting: analyze a directory of query and mapping files.

A *workspace* is a directory tree holding:

- `*.sql`  — queries, `;`-separated, analyzed against the catalog;
- `*.gav`  — GAV view definitions, one `name = SELECT ...` per line
  (`#` comments); linted with `lint_gav` and semantically checked;
- `*.lav`  — LAV source descriptions as Datalog rules, one per line;
  lines starting with `query ` declare workload queries used for
  dead-view detection; linted with `lint_lav`.

Every diagnostic is stamped with the file it came from (relative path as
`origin`), so `python -m repro.analysis <dir>` and the shell's `\\lint`
render actionable, per-file findings.
"""

from __future__ import annotations

import os
from typing import List

from repro.analysis.analyzer import QueryAnalyzer
from repro.analysis.diagnostics import AnalysisReport, error
from repro.analysis.mappings import lint_gav, lint_lav
from repro.mediator.cq import CQSyntaxError, ConjunctiveQuery, parse_cq
from repro.mediator.lav import LavMapping

_EXTENSIONS = (".sql", ".gav", ".lav")


def workspace_files(root: str) -> List[str]:
    """All lintable files under `root` (or `root` itself), sorted."""
    if os.path.isfile(root):
        return [root]
    found: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            if filename.endswith(_EXTENSIONS):
                found.append(os.path.join(dirpath, filename))
    return sorted(found)


def lint_workspace(root: str, catalog) -> AnalysisReport:
    """Lint every query/mapping file under `root` against `catalog`."""
    report = AnalysisReport()
    files = workspace_files(root)
    if not files:
        return report

    gav_views: List[str] = []
    lav_mappings: List[LavMapping] = []
    lav_workload: List[ConjunctiveQuery] = []
    lav_origin: dict = {}

    # Mappings first: queries may reference GAV views defined in the
    # workspace, so the catalog - a fork: the live one is not touched - must
    # know them before the SQL pass runs.
    catalog = catalog.fork()
    for path in files:
        origin = os.path.relpath(path, root if os.path.isdir(root) else os.path.dirname(root) or ".")
        if path.endswith(".gav"):
            report.extend(_load_gav(path, origin, catalog, gav_views))
        elif path.endswith(".lav"):
            report.extend(
                _load_lav(path, origin, lav_mappings, lav_workload, lav_origin)
            )

    if gav_views:
        report.extend(lint_gav(catalog, gav_views))
    if lav_mappings:
        for diagnostic in lint_lav(lav_mappings, lav_workload):
            # per-view findings carry the view name; point at the file instead
            report.add(
                diagnostic.with_origin(
                    lav_origin.get(diagnostic.origin, diagnostic.origin)
                )
            )

    analyzer = QueryAnalyzer(catalog=catalog)
    for path in files:
        if not path.endswith(".sql"):
            continue
        origin = os.path.relpath(path, root if os.path.isdir(root) else os.path.dirname(path) or ".")
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
        for statement_text in _split_statements(content):
            found = analyzer.analyze(statement_text)
            report.extend(d.with_origin(origin) for d in found)
    return report


def _split_statements(content: str) -> List[str]:
    """Split file content on `;`, comment-aware.

    `--` comments are stripped line-wise first so a `;` inside a comment
    does not cut a statement in half. (The lexer would also skip comments,
    but the split itself must not see them.)
    """
    stripped_lines = []
    for line in content.splitlines():
        comment = line.find("--")
        stripped_lines.append(line if comment < 0 else line[:comment])
    out: List[str] = []
    for piece in "\n".join(stripped_lines).split(";"):
        if piece.strip():
            out.append(piece.strip())
    return out


def _load_gav(path: str, origin: str, catalog, names: List[str]) -> List:
    """Define `name = SELECT ...` lines in `catalog`; report bad lines."""
    diags: List = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            diags.append(
                error(
                    "EII100",
                    f"line {number}: expected `name = SELECT ...`",
                    origin=origin,
                    hint="one view definition per line",
                )
            )
            continue
        name, definition = stripped.split("=", 1)
        try:
            names.append(catalog.define(name.strip(), definition.strip()).name.lower())
        except Exception as exc:  # noqa: BLE001 - any parse failure is EII100
            diags.append(
                error(
                    "EII100",
                    f"line {number}: view {name.strip()!r} does not parse: {exc}",
                    origin=origin,
                    hint="the right-hand side must be a SELECT statement",
                )
            )
    return diags


def _load_lav(
    path: str,
    origin: str,
    mappings: List[LavMapping],
    workload: List[ConjunctiveQuery],
    name_origin: dict,
) -> List:
    """Parse Datalog rules (and `query `-prefixed workload rules)."""
    diags: List = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        is_query = stripped.lower().startswith("query ")
        rule_text = stripped[6:] if is_query else stripped
        try:
            rule = parse_cq(rule_text)
        except CQSyntaxError as exc:
            diags.append(
                error(
                    "EII100",
                    f"line {number}: rule does not parse: {exc}",
                    origin=origin,
                    hint="expected `head(Vars) :- body(...)` Datalog syntax",
                )
            )
            continue
        if is_query:
            workload.append(rule)
        else:
            mappings.append(LavMapping(rule))
            name_origin[rule.name] = origin
    return diags
