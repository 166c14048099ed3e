"""Concurrency correctness toolkit: audits the threads sharing one engine.

Three detectors over the `EII5xx` diagnostic family, one currency
(`Diagnostic`/`AnalysisReport`), three very different vantage points:

* **static lint** (`lockorder`, `sharedstate`) — pure-AST passes over
  python sources: lock-order cycles (EII501), unguarded shared writes
  between pool and coordinator code (EII502), non-atomic check-then-act
  on guarded state (EII503);
* **dynamic race sanitizer** (`sanitizer.sanitize`) — Eraser-style
  lockset checking with a happens-before fence over the engine's real
  hot paths: lockset races (EII504), slot leaks (EII506), single-writer
  violations (EII507);
* **deterministic interleaving fuzzer** (`interleave`) — seeded schedule
  perturbation of caller threads sharing one engine, diffed against a
  serial oracle (EII505), and of threads pouring through a source
  limiter, audited for leaks (EII506).

A query starts no thread of its own: the threads these tools watch are
the callers sharing one `FederatedEngine`, and what they share is the
engine's plan and fetch caches, its per-source record and its
`SourceLimiter`.

`lint_concurrency(paths)` is the workspace entry point the
`python -m repro.analysis.concurrency` CLI wraps.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Tuple

from repro.analysis.diagnostics import AnalysisReport

from repro.analysis.concurrency.interleave import (
    InterleaveSchedule,
    fuzz_shared_engine,
    run_limiter_scenario,
)
from repro.analysis.concurrency.lockorder import build_lock_graph, lint_lock_order
from repro.analysis.concurrency.sanitizer import (
    RaceSanitizer,
    instrument_method,
    sanitize,
)
from repro.analysis.concurrency.sharedstate import lint_shared_state

__all__ = [
    "AnalysisReport",
    "InterleaveSchedule",
    "RaceSanitizer",
    "build_lock_graph",
    "collect_sources",
    "fuzz_shared_engine",
    "instrument_method",
    "lint_concurrency",
    "lint_lock_order",
    "lint_shared_state",
    "run_limiter_scenario",
    "sanitize",
]


def collect_sources(paths: Iterable) -> List[Tuple[str, str]]:
    """Expand files/directories into `(origin, source_text)` pairs."""
    sources: List[Tuple[str, str]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files = sorted(path.rglob("*.py"))
        else:
            files = [path]
        for file in files:
            sources.append((str(file), file.read_text()))
    return sources


def lint_concurrency(paths: Iterable) -> AnalysisReport:
    """Run every static concurrency pass over `paths` (files or dirs)."""
    sources = collect_sources(paths)
    report = AnalysisReport()
    report.extend(lint_lock_order(sources))
    report.extend(lint_shared_state(sources))
    return report
